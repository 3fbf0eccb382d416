"""The wire protocol end to end: a TCP server and a JSON-lines client.

Each message is one compact JSON document per line. The client enrolls,
starts a session, and pushes one scan per device; the second submission
triggers the decision, which comes back in the same response.
"""

import tempfile

from proxauth import (
    AuthClient,
    AuthService,
    AuthWireServer,
    Classifier,
    EnvironmentConfig,
    ForestParams,
    PathLossConfig,
    PolicyConfig,
    UserStore,
    build_feature_encoder,
    encode_dataset,
    generate_dataset,
    train_random_forest,
)
from proxauth.rf_simulator import Scenario, scenario_session

ENV, LOSS = EnvironmentConfig(), PathLossConfig()
SEED = 63

dataset = generate_dataset(ENV, LOSS, 240, 3, seed=SEED)
encoder = build_feature_encoder(dataset)
X, y = encode_dataset(encoder, dataset)
model = train_random_forest(X, y, ForestParams(seed=SEED))

# a user store is a directory: users.json, users.log and audit.log
with tempfile.TemporaryDirectory() as data_dir, AuthWireServer(
    AuthService(UserStore(data_dir), Classifier(model, encoder), policy=PolicyConfig()), "127.0.0.1", 0
) as server:
    host, port = server.address
    print(f"server listening on {host}:{port}")

    with AuthClient(host, port) as client:
        print("\nenroll:", client.enroll("bob", "open-sesame1", "bob-phone", "bob-laptop"))

        for kind, scenario in (("near", Scenario.authentic()), ("far", Scenario.unauthorized())):
            begun = client.begin("bob", "open-sesame1")
            mobile, login = scenario_session(
                ENV, LOSS, scenario, env_seed=SEED, locations=3,
                location_index=1, session_seed=ord(kind[0]),
                device_ids=("bob-phone", "bob-laptop"),
            )
            client.submit_scan(begun["session_id"], "bob-phone", mobile)
            final = client.submit_scan(begun["session_id"], "bob-laptop", login)
            print(f"{kind:>5}: outcome={final['outcome']} reason={final['reason']} "
                  f"fraction={final['authentic_fraction']}")

        # error codes travel as-is on the wire
        print("\nwrong secret:", client.begin("bob", "not-the-secret"))
        print("unknown user:", client.begin("mallory", "whatever-12"))

print("\nserver shut down")
