//! Serve admission: a request whose history names an item outside the
//! catalog is rejected before the encoder sees it. Its client gets `None`,
//! the valid requests of the same batch get the evaluator's ranking bit for
//! bit, and the worker keeps serving.
//!
//! The test reads process-global serve instruments, so it is the only test
//! in its file (each file of `tests/` runs as its own process).

use std::sync::Barrier;
use std::time::Duration;

use cp4rec_repro::data::synthetic::{generate_dataset, SyntheticConfig};
use cp4rec_repro::data::Split;
use cp4rec_repro::eval::SequenceScorer;
use cp4rec_repro::models::checkpoint::save_to_vec;
use cp4rec_repro::models::{EncoderConfig, SasRec};
use seqrec_obs::metrics;
use seqrec_serve::service::rank;
use seqrec_serve::{AnyModel, BatchingServer, ServerConfig};

#[test]
fn out_of_catalog_requests_get_none_and_their_batch_is_served_bit_exactly() {
    let mut cfg = SyntheticConfig::beauty(0.01);
    cfg.num_users = 60;
    let dataset = generate_dataset(&cfg);
    let n = dataset.num_items();
    let split = Split::leave_one_out(&dataset);
    let enc = EncoderConfig { num_items: n, d: 16, heads: 2, layers: 1, max_len: 10, dropout: 0.1 };
    let model = AnyModel::load_from_bytes(&save_to_vec(&SasRec::new(enc, 7))).expect("loads");

    let k = 10;
    let users: Vec<usize> = (0..4).collect();
    let inputs: Vec<Vec<u32>> = users.iter().map(|&u| split.test_input(u)).collect();
    let refs: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
    let expected = rank(&model.score_full_catalog(&users, &refs), k);

    // Past the `[mask]` token, the `[mask]` token itself (inside the
    // encoder's vocabulary, outside the catalog) and the pad id.
    let mut past_vocab = inputs[0].clone();
    past_vocab.push(n as u32 + 5);
    let poisons = [past_vocab, vec![1, n as u32 + 1], vec![0, 1]];

    let (errors, in_flight, queue) =
        (metrics::SERVE_ERRORS.get(), metrics::SERVE_IN_FLIGHT.get(), metrics::SERVE_QUEUE.get());
    // A batch closes at five requests; the window is long enough that each
    // round's five concurrent requests always share one batch.
    let server = BatchingServer::spawn(
        model,
        ServerConfig { max_batch: 5, batch_window: Duration::from_secs(10), queue_depth: 16 },
    );
    for poison in &poisons {
        let barrier = Barrier::new(users.len() + 1);
        std::thread::scope(|scope| {
            for (i, &u) in users.iter().enumerate() {
                let (client, barrier, refs, expected) =
                    (server.client(), &barrier, &refs, &expected);
                scope.spawn(move || {
                    barrier.wait();
                    let got = client.recommend(u, refs[i], k).expect("a valid request is served");
                    assert_eq!(got, expected[i], "user {u}: ranking moved beside {poison:?}");
                });
            }
            let client = server.client();
            barrier.wait();
            assert_eq!(client.recommend(4, poison, k), None, "{poison:?} was served");
        });
    }
    // A batch of nothing but rejected requests encodes nothing.
    std::thread::scope(|scope| {
        for poison in poisons.iter().cycle().take(5) {
            let client = server.client();
            scope.spawn(move || assert_eq!(client.recommend(4, poison, k), None));
        }
    });
    // The worker survived: a full batch of valid requests is still served.
    let barrier = Barrier::new(5);
    std::thread::scope(|scope| {
        for i in 0..5 {
            let (client, barrier, refs, expected) = (server.client(), &barrier, &refs, &expected);
            scope.spawn(move || {
                barrier.wait();
                let got = client.recommend(i % 4, refs[i % 4], k).expect("worker alive");
                assert_eq!(got, expected[i % 4]);
            });
        }
    });
    drop(server);

    assert_eq!(metrics::SERVE_ERRORS.get() - errors, poisons.len() as u64 + 5, "serve.errors");
    assert_eq!(metrics::SERVE_IN_FLIGHT.get(), in_flight, "serve.in_flight unbalanced");
    assert_eq!(metrics::SERVE_QUEUE.get(), queue, "serve.queue unbalanced");
}
