"""Regenerating the data collection protocol: two devices, many scans.

Each synthetic location gets its own slice of the access points, a home
spot where the legitimate pair works, and an intruder zone several meters
away. Authentic sessions put the pair within 7 ft of each other at the home
spot; unauthorized sessions operate from the intruder zone at 7.5 ft or
more apart. Every session flattens into one CSV row per device per
observed AP.
"""

from collections import Counter

from proxauth import (
    EnvironmentConfig,
    PathLossConfig,
    dataset_to_csv_bytes,
    generate_dataset,
    parse_dataset_csv,
)
from proxauth.rf_simulator import sessions_for_target_rows

env = EnvironmentConfig()   # 10 APs in a 30 m square
loss = PathLossConfig()

# aim for roughly the size of the real collection (4,825 rows)
sessions = sessions_for_target_rows(env, loss, target_rows=4825, locations=3, seed=11)
dataset = generate_dataset(env, loss, sessions, locations=3, seed=11)

counts = dataset.label_counts()
print(f"{sessions} sessions per class over 3 locations -> {len(dataset)} rows")
print(f"labels: { {k.value: v for k, v in counts.items()} } (balanced={dataset.is_balanced()})")

print("\nfirst rows:")
for s in dataset.samples[:6]:
    o = s.observation
    print(f"  {s.role.value:>6} {o.ssid} {o.frequency / 1e9:.3f} GHz {o.rssi:>4} dBm "
          f"{s.location_tag} {s.label.value}")

per_location = Counter(s.location_tag for s in dataset.samples)
print(f"\nrows per location: {dict(per_location)}")

# the CSV round trip is lossless
csv_bytes = dataset_to_csv_bytes(dataset)
again = parse_dataset_csv(csv_bytes)
print(f"\nCSV round trip: {len(again)} rows, identical={again == dataset}")
print("header:", csv_bytes.decode().splitlines()[0])
