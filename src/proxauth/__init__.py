"""proxauth: zero-effort second-factor authentication from Wi-Fi beacon scans.

Two devices scan the access points around them; a server decides whether
they are co-located by classifying the overlapping observations with a
from-scratch decision tree or random forest, and grants or denies access
accordingly. The package also ships an RF simulator that regenerates
desk-scale training datasets, so the whole pipeline runs without hardware.

Modules:
    beacon_model   scan/observation types, CSV dataset IO, feature encoding
    colocation_ml  stratified split, decision tree, random forest, metrics
    rf_simulator   log-distance path-loss simulation and dataset generation
    auth_service   enrollment store, session state machine, decisions
    wire           JSON-over-TCP server and client for the service
    jsondoc        the one JSON codec: parse/decode read, encode/dump write every document
    cli            the `proxauth` command line
"""

from . import auth_service, beacon_model, colocation_ml, errors, rf_simulator, wire
from .auth_service import (
    AuthDecision,
    AuthService,
    AuthSession,
    DecisionOutcome,
    DecisionReason,
    MatchKey,
    PolicyConfig,
    SessionState,
    UserRecord,
    UserStore,
    decide,
    overlap_observations,
)
from .beacon_model import (
    BeaconObservation,
    Dataset,
    DeviceRole,
    FeatureEncoder,
    Label,
    LabeledSample,
    ScanSnapshot,
    build_feature_encoder,
    dataset_to_csv_bytes,
    encode_dataset,
    encode_observations,
    parse_dataset_csv,
)
from .colocation_ml import (
    Classifier,
    ConfusionMatrix,
    DecisionTree,
    ForestParams,
    MetricsReport,
    RandomForest,
    TreeParams,
    compute_metrics,
    evaluate,
    gini_impurity,
    load_model,
    predict_batch,
    save_model,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)
from .rf_simulator import (
    CampaignConfig,
    EnvironmentConfig,
    PathLossConfig,
    Scenario,
    generate_dataset,
    generate_session,
    rssi_at_distance,
)
from .wire import AuthClient, AuthWireServer

__version__ = "0.1.0"
