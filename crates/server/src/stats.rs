//! The operation classes that per-op latency is accounted under.
//!
//! Every served frame is timed and recorded into its class's
//! [`bst_obs::AtomicHistogram`]; the histograms render on the METRICS
//! page as `bst_server_request_latency_us{op="<class name>"}`.

use crate::protocol::Request;

/// The operation classes the latency surface distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// `CREATE`.
    Create,
    /// Stored-set churn: `INSERT_KEYS`, `REMOVE_KEYS`, `DROP_SET`.
    SetChurn,
    /// Namespace-occupancy churn: `OCC_INSERT`, `OCC_REMOVE`.
    Occupancy,
    /// `SAMPLE` and `SAMPLE_MANY`.
    Sample,
    /// `RECONSTRUCT` and `RECONSTRUCT_RANGE`.
    Reconstruct,
    /// `BATCH`.
    Batch,
    /// `SAVE` and `LOAD`.
    Snapshot,
    /// Everything else: `PING`, `GET`, `LIST_SETS`, `METRICS`,
    /// `SHUTDOWN`.
    Admin,
}

impl OpClass {
    /// Every class, in declaration order (`ALL[c as usize] == c`).
    pub const ALL: [OpClass; 8] = [
        OpClass::Create,
        OpClass::SetChurn,
        OpClass::Occupancy,
        OpClass::Sample,
        OpClass::Reconstruct,
        OpClass::Batch,
        OpClass::Snapshot,
        OpClass::Admin,
    ];

    /// The class's `op` label value on the METRICS page.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Create => "create",
            OpClass::SetChurn => "set-churn",
            OpClass::Occupancy => "occupancy",
            OpClass::Sample => "sample",
            OpClass::Reconstruct => "reconstruct",
            OpClass::Batch => "batch",
            OpClass::Snapshot => "snapshot",
            OpClass::Admin => "admin",
        }
    }

    /// Which class a request is accounted under.
    pub fn classify(req: &Request) -> OpClass {
        match req {
            Request::Create { .. } => OpClass::Create,
            Request::InsertKeys { .. } | Request::RemoveKeys { .. } | Request::DropSet { .. } => {
                OpClass::SetChurn
            }
            Request::OccInsert { .. } | Request::OccRemove { .. } => OpClass::Occupancy,
            Request::Sample { .. } | Request::SampleMany { .. } => OpClass::Sample,
            Request::Reconstruct { .. } | Request::ReconstructRange { .. } => OpClass::Reconstruct,
            Request::Batch { .. } => OpClass::Batch,
            Request::Save | Request::Load { .. } => OpClass::Snapshot,
            Request::Ping
            | Request::Get { .. }
            | Request::ListSets
            | Request::Metrics
            | Request::Shutdown => OpClass::Admin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_every_opcode_family() {
        assert_eq!(
            OpClass::classify(&Request::Create { keys: vec![] }),
            OpClass::Create
        );
        assert_eq!(
            OpClass::classify(&Request::DropSet { id: 1 }),
            OpClass::SetChurn
        );
        assert_eq!(
            OpClass::classify(&Request::OccInsert { key: 2 }),
            OpClass::Occupancy
        );
        assert_eq!(
            OpClass::classify(&Request::SampleMany {
                target: crate::protocol::Target::Stored(0),
                r: 4,
                seed: 0
            }),
            OpClass::Sample
        );
        assert_eq!(OpClass::classify(&Request::Save), OpClass::Snapshot);
        assert_eq!(OpClass::classify(&Request::Ping), OpClass::Admin);
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i);
            assert!(!class.name().is_empty());
        }
    }
}
