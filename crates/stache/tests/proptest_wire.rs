//! Property-based wire-format torture: arbitrary protocol frames must
//! round-trip the socket encoding bit-exactly, truncated frames must
//! never decode, and the singleton fast path (`WirePayload::One`) must
//! survive the trip. These are the compiled-out twins of the unit tests
//! in `src/wire.rs` — same properties, adversarial inputs.

use std::sync::Arc;

use prescient_stache::{Msg, UserMsg};
use prescient_tempest::fabric::{WireBatch, WirePayload};
use prescient_tempest::wire::{decode_frame_body, encode_frame};
use prescient_tempest::{BlockId, NodeSet};
use proptest::prelude::*;

fn arb_blob() -> impl Strategy<Value = Arc<[u8]>> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(|v| Arc::from(v.into_boxed_slice()))
}

fn arb_user() -> impl Strategy<Value = UserMsg> {
    (
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u16>(),
        proptest::collection::vec((any::<u64>(), arb_blob()), 0..5),
    )
        .prop_map(|(code, a, b, block, set, node, blocks)| UserMsg {
            code,
            a,
            b,
            block: BlockId(block),
            set: NodeSet(set),
            node,
            blocks: blocks.into_iter().map(|(b, d)| (BlockId(b), d)).collect::<Vec<_>>().into(),
        })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(b, seq)| Msg::GetShared { block: BlockId(b), seq }),
        (any::<u64>(), any::<u64>()).prop_map(|(b, seq)| Msg::GetExcl { block: BlockId(b), seq }),
        (any::<u64>(), any::<bool>(), any::<u64>()).prop_map(|(b, inval, op)| Msg::Recall {
            block: BlockId(b),
            inval,
            op
        }),
        (any::<u64>(), proptest::option::of(arb_blob()), any::<u64>(), any::<bool>()).prop_map(
            |(b, data, op, unused)| Msg::RecallData { block: BlockId(b), data, op, unused }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(b, op)| Msg::Invalidate { block: BlockId(b), op }),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(b, op, unused)| Msg::InvalAck {
            block: BlockId(b),
            op,
            unused
        }),
        (
            any::<u64>(),
            any::<bool>(),
            proptest::option::of(arb_blob()),
            any::<u32>(),
            any::<bool>(),
            any::<u64>()
        )
            .prop_map(|(b, excl, data, extra_hops, recorded, seq)| Msg::Grant {
                block: BlockId(b),
                excl,
                data,
                extra_hops,
                recorded,
                seq
            }),
        arb_user().prop_map(Msg::User),
        Just(Msg::Kick),
        Just(Msg::Fence),
    ]
}

/// Arbitrary wire batches, including the singleton fast path. `Many` is
/// drawn with ≥ 2 messages because the wire format *normalizes*: a frame
/// whose count is 1 always decodes to `One` (checked separately below).
fn arb_batch() -> impl Strategy<Value = WireBatch<Msg>> {
    let payload = prop_oneof![
        arb_msg().prop_map(WirePayload::One),
        proptest::collection::vec(arb_msg(), 2..8).prop_map(WirePayload::Many),
    ];
    (any::<u16>(), any::<u64>(), payload).prop_map(|(src, id, msgs)| WireBatch { src, id, msgs })
}

proptest! {
    #[test]
    fn frames_roundtrip_bit_exactly(dst in any::<u16>(), batch in arb_batch()) {
        let bytes = encode_frame(dst, &batch).unwrap();
        let (got_dst, got) = decode_frame_body::<Msg>(&bytes[4..]).unwrap();
        prop_assert_eq!(got_dst, dst);
        if matches!(batch.msgs, WirePayload::One(_)) {
            prop_assert!(
                matches!(got.msgs, WirePayload::One(_)),
                "the singleton fast path must survive the wire"
            );
        }
        prop_assert_eq!(got, batch);
    }

    #[test]
    fn singleton_many_normalizes_to_one(dst in any::<u16>(), msg in arb_msg(), src in any::<u16>(), id in any::<u64>()) {
        let many = WireBatch { src, id, msgs: WirePayload::Many(vec![msg.clone()]) };
        let bytes = encode_frame(dst, &many).unwrap();
        let (_, got) = decode_frame_body::<Msg>(&bytes[4..]).unwrap();
        match got.msgs {
            WirePayload::One(m) => prop_assert_eq!(m, msg),
            WirePayload::Many(_) => prop_assert!(false, "count == 1 must decode as One"),
        }
    }

    #[test]
    fn truncated_frames_never_decode(batch in arb_batch(), cut in any::<proptest::sample::Index>()) {
        let bytes = encode_frame(0, &batch).unwrap();
        let body = &bytes[4..];
        let cut = cut.index(body.len()); // strict prefix: 0 <= cut < len
        prop_assert!(decode_frame_body::<Msg>(&body[..cut]).is_err());
    }
}
