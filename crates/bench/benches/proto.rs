//! Wire-protocol benchmarks: codec throughput and full-session cost.

use criterion::{criterion_group, criterion_main, Criterion};
use nexit_core::{DisclosurePolicy, GainTable, NexitConfig, PreferenceMapper, SessionInput, Side};
use nexit_proto::{run_session, Agent, FaultyLink, Message};
use nexit_routing::{Assignment, FlowId};
use nexit_topology::IcxId;

struct Flat;
impl PreferenceMapper for Flat {
    fn gains(&mut self, i: &SessionInput, _c: &Assignment, out: &mut GainTable) {
        for (row, flow) in i.flow_ids.iter().enumerate() {
            for (a, cell) in out.row_mut(row).iter_mut().enumerate() {
                *cell = ((flow.index() + a) % 7) as f64 - 3.0;
            }
        }
    }
}

fn bench_proto(c: &mut Criterion) {
    c.bench_function("preflist_codec_roundtrip_500x4", |b| {
        let msg = Message::PrefList {
            prefs: (0..500)
                .map(|f| (0..4).map(|a| ((f * a) % 21) as i16 - 10).collect())
                .collect(),
        };
        b.iter(|| {
            let wire = msg.encode();
            let mut codec = nexit_proto::FrameCodec::new();
            codec.feed(&wire);
            let frame = codec.next_frame().unwrap().unwrap();
            Message::decode(&frame).unwrap()
        });
    });

    let mut g = c.benchmark_group("session");
    g.sample_size(20);
    g.bench_function("full_session_200_flows", |b| {
        let n = 200;
        let input = SessionInput {
            flow_ids: (0..n).map(FlowId::new).collect(),
            defaults: vec![IcxId(0); n],
            volumes: vec![1.0; n],
            num_alternatives: 4,
        };
        let default = Assignment::uniform(n, IcxId(0));
        let config = NexitConfig::win_win();
        b.iter(|| {
            let mut a = Agent::new(
                Side::A,
                "A",
                input.clone(),
                default.clone(),
                Flat,
                DisclosurePolicy::Truthful,
                config,
            )
            .unwrap();
            let mut bb = Agent::new(
                Side::B,
                "B",
                input.clone(),
                default.clone(),
                Flat,
                DisclosurePolicy::Truthful,
                config,
            )
            .unwrap();
            let mut ab = FaultyLink::reliable();
            let mut ba = FaultyLink::reliable();
            run_session(&mut a, &mut bb, &mut ab, &mut ba).unwrap()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_proto);
criterion_main!(benches);
