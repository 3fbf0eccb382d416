"""The authentication state machine, driven in-process.

A session starts with the first factor (username + secret), then waits for
one scan from each enrolled device. As soon as both are in, the classifier
votes over the observations of every AP both devices saw, and the session
is granted only when the authentic fraction clears the threshold. Every
other path denies: wrong secret, stale scans, no shared AP, or a losing
vote.
"""

import dataclasses
import tempfile

from proxauth import (
    AuthService,
    BeaconObservation,
    Classifier,
    DeviceRole,
    EnvironmentConfig,
    ForestParams,
    PathLossConfig,
    PolicyConfig,
    ScanSnapshot,
    UserStore,
    build_feature_encoder,
    encode_dataset,
    generate_dataset,
    train_random_forest,
)
from proxauth.rf_simulator import Scenario, scenario_session

ENV, LOSS = EnvironmentConfig(), PathLossConfig()
SEED = 55

dataset = generate_dataset(ENV, LOSS, 240, 3, seed=SEED)
encoder = build_feature_encoder(dataset)
X, y = encode_dataset(encoder, dataset)
model = train_random_forest(X, y, ForestParams(seed=SEED))


def attempt(title, scenario, mutate_login=None, secret="correct-horse"):
    session = service.begin_session("alice", secret)
    if session.decision is None:
        mobile, login = scenario_session(
            ENV, LOSS, scenario, env_seed=SEED, locations=3,
            location_index=0, session_seed=sum(map(ord, title)),
            device_ids=("alice-phone", "alice-laptop"),
        )
        if mutate_login:
            login = mutate_login(login)
        service.submit_scan(session.session_id, "alice-phone", mobile)
        service.submit_scan(session.session_id, "alice-laptop", login)
    d = session.decision
    fraction = "n/a" if d.authentic_fraction is None else f"{d.authentic_fraction:.2f}"
    print(f"  {title:<28} -> {d.outcome.value:<5} ({d.reason.value}, fraction={fraction})")


# a user store is a directory: users.json, users.log and audit.log
with tempfile.TemporaryDirectory() as data_dir:
    service = AuthService(UserStore(data_dir), Classifier(model, encoder), policy=PolicyConfig())
    service.enroll_user("alice", "correct-horse", "alice-phone", "alice-laptop")
    print("enrolled alice with devices alice-phone / alice-laptop")

    print("\nauthentication attempts:")
    attempt("devices together", Scenario.authentic())
    attempt("devices far apart", Scenario.unauthorized())
    attempt("wrong password", Scenario.authentic(), secret="wrong-horse")
    attempt(
        "login scan 15s late",
        Scenario.authentic(),
        mutate_login=lambda s: dataclasses.replace(s, timestamp=s.timestamp + 15_000),
    )
    attempt(
        "login sees other APs",
        Scenario.authentic(),
        mutate_login=lambda s: dataclasses.replace(
            s,
            observations=tuple(
                BeaconObservation(f"Ghost-{i}", 2412000000, -70)
                for i in range(len(s.observations))
            ),
        ),
    )
    print("\nonly the co-located attempt is granted; everything else fails closed")
