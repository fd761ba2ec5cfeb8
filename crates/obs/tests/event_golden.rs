//! One record of every `Event` variant with its exact JSONL line and
//! digest hash, including an absent `seq` and both values of every flag.
//! Both encoders read the event's field walk; these values pin its names,
//! order and types, and the committed digest trails depend on the hashes.

use obs::digest::hash_record;
use obs::{to_json_line, Cast, Event, PacketClass, Record};

const fn rec(t_ns: u64, event: Event) -> Record {
    Record { t_ns, event }
}

const GOLDEN: &[(Record, &str, u64)] = &[
    (
        rec(
            1_500_000,
            Event::PacketSent {
                node: 0,
                class: PacketClass::Data,
                seq: Some(7),
                cast: Cast::Multicast,
            },
        ),
        r#"{"t":1500000,"ev":"sent","node":0,"class":"data","seq":7,"cast":"multicast"}"#,
        0xaf32_c03d_ca36_f868,
    ),
    (
        rec(
            2,
            Event::PacketSent {
                node: 4_000_000_000,
                class: PacketClass::Session,
                seq: None,
                cast: Cast::Subcast,
            },
        ),
        r#"{"t":2,"ev":"sent","node":4000000000,"class":"session","seq":null,"cast":"subcast"}"#,
        0x1b30_ef61_def0_0428,
    ),
    (
        rec(
            0,
            Event::PacketDropped {
                link: 3,
                class: PacketClass::Session,
                seq: None,
            },
        ),
        r#"{"t":0,"ev":"dropped","link":3,"class":"session","seq":null}"#,
        0x2d35_408c_8fe9_1e94,
    ),
    (
        rec(
            9,
            Event::PacketDropped {
                link: 11,
                class: PacketClass::ExpeditedReply,
                seq: Some(0),
            },
        ),
        r#"{"t":9,"ev":"dropped","link":11,"class":"exp_reply","seq":0}"#,
        0x9e5f_c35c_3747_b156,
    ),
    (
        rec(
            77,
            Event::PacketDelivered {
                node: 5,
                class: PacketClass::ExpeditedRequest,
                seq: Some(u64::MAX),
                origin: 12,
            },
        ),
        r#"{"t":77,"ev":"delivered","node":5,"class":"exp_request","seq":18446744073709551615,"origin":12}"#,
        0x14c8_7615_fddf_451e,
    ),
    (
        rec(
            78,
            Event::PacketDelivered {
                node: 6,
                class: PacketClass::Request,
                seq: None,
                origin: 1,
            },
        ),
        r#"{"t":78,"ev":"delivered","node":6,"class":"request","seq":null,"origin":1}"#,
        0xaf3e_b196_c771_945c,
    ),
    (
        rec(25_530_922_666, Event::LossDetected { node: 12, seq: 254 }),
        r#"{"t":25530922666,"ev":"loss_detected","node":12,"seq":254}"#,
        0x4954_d66a_ff86_b7cc,
    ),
    (
        rec(
            25_530_922_666,
            Event::RequestScheduled {
                node: 12,
                seq: 254,
                round: 0,
                delay_ns: 108_857_851,
            },
        ),
        r#"{"t":25530922666,"ev":"req_scheduled","node":12,"seq":254,"round":0,"delay_ns":108857851}"#,
        0x621d_20d8_bd9c_d847,
    ),
    (
        rec(
            100,
            Event::RequestSuppressed {
                node: 2,
                seq: 3,
                by: 4,
            },
        ),
        r#"{"t":100,"ev":"req_suppressed","node":2,"seq":3,"by":4}"#,
        0x23fc_dc80_3a06_9943,
    ),
    (
        rec(
            101,
            Event::RequestSent {
                node: 2,
                seq: 3,
                round: 2,
            },
        ),
        r#"{"t":101,"ev":"req_sent","node":2,"seq":3,"round":2}"#,
        0x9d12_e2bb_b74c_fdba,
    ),
    (
        rec(
            102,
            Event::ReplyScheduled {
                node: 8,
                seq: 3,
                requestor: 2,
            },
        ),
        r#"{"t":102,"ev":"rep_scheduled","node":8,"seq":3,"requestor":2}"#,
        0x657d_046d_d86f_0e24,
    ),
    (
        rec(
            103,
            Event::ReplySuppressed {
                node: 8,
                seq: 3,
                by: 9,
            },
        ),
        r#"{"t":103,"ev":"rep_suppressed","node":8,"seq":3,"by":9}"#,
        0x07da_f4fd_35c1_14b2,
    ),
    (
        rec(
            104,
            Event::ReplySent {
                node: 9,
                seq: 3,
                requestor: 2,
                expedited: false,
            },
        ),
        r#"{"t":104,"ev":"rep_sent","node":9,"seq":3,"requestor":2,"expedited":false}"#,
        0x56af_6620_eaed_6af2,
    ),
    (
        rec(
            105,
            Event::ReplySent {
                node: 9,
                seq: 3,
                requestor: 2,
                expedited: true,
            },
        ),
        r#"{"t":105,"ev":"rep_sent","node":9,"seq":3,"requestor":2,"expedited":true}"#,
        0xf9a0_098c_5d4e_de94,
    ),
    (
        rec(
            25_530_922_666,
            Event::ExpeditedRequestSent {
                node: 12,
                seq: 254,
                replier: 0,
            },
        ),
        r#"{"t":25530922666,"ev":"xreq_sent","node":12,"seq":254,"replier":0}"#,
        0xda5f_1abd_dda8_836e,
    ),
    (
        rec(
            25_570_922_666,
            Event::ExpeditedReplySent {
                node: 0,
                seq: 254,
                requestor: 12,
                subcast: false,
            },
        ),
        r#"{"t":25570922666,"ev":"xrep_sent","node":0,"seq":254,"requestor":12,"subcast":false}"#,
        0xb195_566d_4392_a7c1,
    ),
    (
        rec(
            25_570_922_667,
            Event::ExpeditedReplySent {
                node: 0,
                seq: 254,
                requestor: 12,
                subcast: true,
            },
        ),
        r#"{"t":25570922667,"ev":"xrep_sent","node":0,"seq":254,"requestor":12,"subcast":true}"#,
        0x26f6_675a_1e2d_ba18,
    ),
    (
        rec(
            25_530_922_666,
            Event::CacheHit {
                node: 19,
                seq: 254,
                requestor: 12,
                replier: 0,
            },
        ),
        r#"{"t":25530922666,"ev":"cache_hit","node":19,"seq":254,"requestor":12,"replier":0}"#,
        0x0128_45bf_6c34_74c2,
    ),
    (
        rec(200, Event::CacheMiss { node: 7, seq: 31 }),
        r#"{"t":200,"ev":"cache_miss","node":7,"seq":31}"#,
        0xf7c6_773b_ac26_7204,
    ),
    (
        rec(
            25_621_845_332,
            Event::CacheUpdate {
                node: 12,
                seq: 254,
                requestor: 12,
                replier: 0,
            },
        ),
        r#"{"t":25621845332,"ev":"cache_update","node":12,"seq":254,"requestor":12,"replier":0}"#,
        0xccf4_0c3d_4227_9080,
    ),
    (
        rec(
            25_621_845_332,
            Event::RecoveryCompleted {
                node: 12,
                seq: 254,
                expedited: true,
            },
        ),
        r#"{"t":25621845332,"ev":"recovered","node":12,"seq":254,"expedited":true}"#,
        0xcc7a_2c6f_f8ec_c11a,
    ),
    (
        rec(
            300,
            Event::RecoveryCompleted {
                node: 4,
                seq: 30,
                expedited: false,
            },
        ),
        r#"{"t":300,"ev":"recovered","node":4,"seq":30,"expedited":false}"#,
        0xe1df_9d67_f6e3_9e1a,
    ),
    (
        rec(u64::MAX, Event::SpuriousLoss { node: 1, seq: 2 }),
        r#"{"t":18446744073709551615,"ev":"spurious","node":1,"seq":2}"#,
        0x505c_4646_32a7_93e2,
    ),
];

#[test]
fn golden_records_cover_every_variant() {
    let mut seen: Vec<&str> = GOLDEN.iter().map(|(r, _, _)| r.event.name()).collect();
    seen.dedup();
    assert_eq!(
        seen,
        Event::NAMES,
        "one block per variant, in declaration order"
    );
}

#[test]
fn json_lines_are_pinned() {
    for (record, line, _) in GOLDEN {
        assert_eq!(to_json_line(record), *line);
    }
}

#[test]
fn digest_hashes_are_pinned() {
    for (record, line, hash) in GOLDEN {
        assert_eq!(hash_record(record), *hash, "{line}");
    }
}
