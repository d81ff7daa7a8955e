//! Query serialization: the store logs *encoded* queries and never
//! inspects them, so the engine's query type stays pluggable.

use crate::error::StoreError;

/// Encodes and decodes one query type for the WAL and snapshots.
///
/// The one contract is the round trip: `decode(encode(q)) == q`. The
/// bytes are never used as an identity — a pending query is named by
/// its submit's seq — so equal queries may share an encoding.
pub trait QueryCodec<Q> {
    /// Append the query's encoding to `out`.
    fn encode(&self, query: &Q, out: &mut Vec<u8>);

    /// Decode a query from its exact encoding.
    fn decode(&self, bytes: &[u8]) -> Result<Q, StoreError>;
}
