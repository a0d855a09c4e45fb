//! Socket-transport encoding of the protocol vocabulary.
//!
//! Implements [`WireCodec`] for [`Msg`], so a stache machine can run on
//! the socket backend (`prescient_tempest::socket`). The encoding is
//! positional little-endian with the variant tag being the stable
//! [`Msg::kind_code`] (the same byte the trace stream uses), `Option`
//! data payloads as a presence byte plus a length-prefixed blob, and the
//! user-message block list as a count-prefixed sequence of
//! `(block, blob)` pairs.
//!
//! Two properties the backend-equivalence suite relies on:
//!
//! * **Round trip**: `decode(encode(m)) == m` for every reachable
//!   message, including empty data blobs and full [`crate::msg::UserMsg`]
//!   payloads (checked exhaustively by the unit tests below and by
//!   `proptest_wire.rs` over arbitrary payloads).
//! * **Sharing is re-established, not preserved**: `Arc` payloads are
//!   snapshotted into bytes at the sender and re-wrapped at the receiver,
//!   which is exactly the semantics a process boundary forces anyway.

use std::sync::Arc;

use prescient_tempest::wire::{
    put_blob, put_u16, put_u32, put_u64, put_u8, WireCodec, WireDecoder, WireError,
};
use prescient_tempest::{BlockId, NodeSet};

use crate::msg::{Msg, UserMsg};

fn put_opt_blob(out: &mut Vec<u8>, data: &Option<Arc<[u8]>>) {
    match data {
        None => put_u8(out, 0),
        Some(d) => {
            put_u8(out, 1);
            put_blob(out, d);
        }
    }
}

fn take_opt_blob(d: &mut WireDecoder<'_>) -> Result<Option<Arc<[u8]>>, WireError> {
    match d.take_u8()? {
        0 => Ok(None),
        1 => Ok(Some(Arc::from(d.take_blob()?))),
        tag => Err(WireError::BadTag { what: "Option<data>", tag }),
    }
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, v as u8);
}

fn take_bool(d: &mut WireDecoder<'_>) -> Result<bool, WireError> {
    match d.take_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { what: "bool", tag }),
    }
}

impl WireCodec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, self.kind_code() as u8);
        match self {
            Msg::GetShared { block, seq } | Msg::GetExcl { block, seq } => {
                put_u64(out, block.0);
                put_u64(out, *seq);
            }
            Msg::Recall { block, inval, op } => {
                put_u64(out, block.0);
                put_bool(out, *inval);
                put_u64(out, *op);
            }
            Msg::RecallData { block, data, op, unused } => {
                put_u64(out, block.0);
                put_opt_blob(out, data);
                put_u64(out, *op);
                put_bool(out, *unused);
            }
            Msg::Invalidate { block, op } => {
                put_u64(out, block.0);
                put_u64(out, *op);
            }
            Msg::InvalAck { block, op, unused } => {
                put_u64(out, block.0);
                put_u64(out, *op);
                put_bool(out, *unused);
            }
            Msg::Grant { block, excl, data, extra_hops, recorded, seq } => {
                put_u64(out, block.0);
                put_bool(out, *excl);
                put_opt_blob(out, data);
                put_u32(out, *extra_hops);
                put_bool(out, *recorded);
                put_u64(out, *seq);
            }
            Msg::User(u) => {
                put_u16(out, u.code);
                put_u64(out, u.a);
                put_u64(out, u.b);
                put_u64(out, u.block.0);
                put_u64(out, u.set.0);
                put_u16(out, u.node);
                put_u32(out, u.blocks.len() as u32);
                for (b, bytes) in u.blocks.iter() {
                    put_u64(out, b.0);
                    put_blob(out, bytes);
                }
            }
            Msg::Kick | Msg::Fence => {}
        }
    }

    fn decode(d: &mut WireDecoder<'_>) -> Result<Msg, WireError> {
        let tag = d.take_u8()?;
        Ok(match tag {
            1 => Msg::GetShared { block: BlockId(d.take_u64()?), seq: d.take_u64()? },
            2 => Msg::GetExcl { block: BlockId(d.take_u64()?), seq: d.take_u64()? },
            3 => Msg::Recall {
                block: BlockId(d.take_u64()?),
                inval: take_bool(d)?,
                op: d.take_u64()?,
            },
            4 => Msg::RecallData {
                block: BlockId(d.take_u64()?),
                data: take_opt_blob(d)?,
                op: d.take_u64()?,
                unused: take_bool(d)?,
            },
            5 => Msg::Invalidate { block: BlockId(d.take_u64()?), op: d.take_u64()? },
            6 => Msg::InvalAck {
                block: BlockId(d.take_u64()?),
                op: d.take_u64()?,
                unused: take_bool(d)?,
            },
            7 => Msg::Grant {
                block: BlockId(d.take_u64()?),
                excl: take_bool(d)?,
                data: take_opt_blob(d)?,
                extra_hops: d.take_u32()?,
                recorded: take_bool(d)?,
                seq: d.take_u64()?,
            },
            8 => {
                let code = d.take_u16()?;
                let a = d.take_u64()?;
                let b = d.take_u64()?;
                let block = BlockId(d.take_u64()?);
                let set = NodeSet(d.take_u64()?);
                let node = d.take_u16()?;
                let count = d.take_u32()? as usize;
                let mut blocks = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let b = BlockId(d.take_u64()?);
                    let bytes: Arc<[u8]> = Arc::from(d.take_blob()?);
                    blocks.push((b, bytes));
                }
                Msg::User(UserMsg { code, a, b, block, set, node, blocks: blocks.into() })
            }
            9 => Msg::Kick,
            10 => Msg::Fence,
            tag => return Err(WireError::BadTag { what: "Msg", tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prescient_tempest::fabric::{WireBatch, WirePayload};
    use prescient_tempest::wire::{decode_frame_body, encode_frame};

    fn roundtrip(m: &Msg) -> Msg {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut d = WireDecoder::new(&buf);
        let got = Msg::decode(&mut d).expect("decode");
        d.finish().expect("no trailing bytes");
        got
    }

    fn sample_msgs() -> Vec<Msg> {
        let data: Arc<[u8]> = Arc::from(&b"block-bytes-0123"[..]);
        let empty: Arc<[u8]> = Arc::from(&[][..]);
        vec![
            Msg::GetShared { block: BlockId(7), seq: 3 },
            Msg::GetExcl { block: BlockId(u64::MAX), seq: u64::MAX },
            Msg::Recall { block: BlockId(1), inval: true, op: 42 },
            Msg::Recall { block: BlockId(2), inval: false, op: 0 },
            Msg::RecallData { block: BlockId(3), data: Some(data.clone()), op: 5, unused: true },
            Msg::RecallData { block: BlockId(4), data: None, op: 6, unused: false },
            Msg::RecallData { block: BlockId(5), data: Some(empty.clone()), op: 7, unused: false },
            Msg::Invalidate { block: BlockId(8), op: 9 },
            Msg::InvalAck { block: BlockId(10), op: 11, unused: true },
            Msg::Grant {
                block: BlockId(12),
                excl: true,
                data: Some(data.clone()),
                extra_hops: 3,
                recorded: true,
                seq: 99,
            },
            Msg::Grant {
                block: BlockId(13),
                excl: false,
                data: None,
                extra_hops: 0,
                recorded: false,
                seq: 100,
            },
            Msg::User(UserMsg::simple(21, 1234)),
            Msg::User(UserMsg {
                code: 5,
                a: 1,
                b: 2,
                block: BlockId(3),
                set: NodeSet(0b1011),
                node: 63,
                blocks: vec![(BlockId(1), data.clone()), (BlockId(2), empty)].into(),
            }),
            Msg::Kick,
            Msg::Fence,
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for m in sample_msgs() {
            assert_eq!(roundtrip(&m), m, "round trip must be identity for {m:?}");
        }
    }

    #[test]
    fn frames_of_msgs_roundtrip_including_singletons() {
        let msgs = sample_msgs();
        // Singleton fast path.
        let one = WireBatch { src: 2, id: 77, msgs: WirePayload::One(msgs[0].clone()) };
        let bytes = encode_frame(5, &one).unwrap();
        let (dst, got) = decode_frame_body::<Msg>(&bytes[4..]).unwrap();
        assert_eq!(dst, 5);
        assert_eq!(got, one);
        assert!(matches!(got.msgs, WirePayload::One(_)));
        // Aggregated batch.
        let many = WireBatch { src: 0, id: 1, msgs: WirePayload::Many(msgs.clone()) };
        let bytes = encode_frame(1, &many).unwrap();
        let (_, got) = decode_frame_body::<Msg>(&bytes[4..]).unwrap();
        assert_eq!(got, many);
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        let mut buf = Vec::new();
        Msg::Fence.encode(&mut buf);
        buf[0] = 200;
        let mut d = WireDecoder::new(&buf);
        assert_eq!(Msg::decode(&mut d), Err(WireError::BadTag { what: "Msg", tag: 200 }));
    }

    #[test]
    fn truncated_grant_is_rejected() {
        let mut buf = Vec::new();
        Msg::Grant {
            block: BlockId(1),
            excl: true,
            data: Some(Arc::from(&b"xyz"[..])),
            extra_hops: 1,
            recorded: false,
            seq: 4,
        }
        .encode(&mut buf);
        for cut in 1..buf.len() {
            let mut d = WireDecoder::new(&buf[..cut]);
            assert!(Msg::decode(&mut d).is_err(), "prefix of {cut} bytes must not decode");
        }
    }
}
