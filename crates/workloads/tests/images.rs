//! Memory-image pins: every kernel's built data layout, at two seeds,
//! hashes to a recorded value.
//!
//! Kernel builders are rewritten for speed from time to time (bulk page
//! fills, a counting-sort CSR for the RMAT graphs). Such a rewrite must
//! not move one simulated byte, and this test is what says so: the 72
//! values below were recorded from the per-word builders, so any change
//! to an address, a value or the set of touched pages fails here, named
//! by kernel and seed.

/// Order-sensitive digest of a memory image: every touched page, in
/// address order, as its address followed by its 512 words. Untouched
/// pages read as zero but are *not* hashed, so a builder that touches
/// an extra all-zero page also changes the digest.
fn image_digest(spec: &dol_workloads::Spec, seed: u64) -> u64 {
    let vm = spec.build_vm(seed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    };
    for (addr, words) in vm.memory().pages_sorted() {
        mix(addr);
        for &w in words.iter() {
            mix(w);
        }
    }
    h
}

/// `(kernel, digest at seed 2018, digest at seed 424242)`.
const PINNED: [(&str, u64, u64); 36] = [
    ("stream_sum", 0x763c8712fb7ec3f6, 0x4648d25373ba5b19),
    ("stream_triad", 0xa22f22c8b2fd8696, 0x117e583ae58307d9),
    ("stride8_walk", 0x7eb1c6c01bb42e35, 0x44498dafa0dde114),
    ("reverse_scan", 0x763c8712fb7ec3f6, 0x4648d25373ba5b19),
    ("unrolled_copy", 0xe394609e8f3dbe4f, 0x796652121db68536),
    ("matrix_row", 0x7e06308dc481f222, 0x66e23c49eece3490),
    ("matrix_col", 0x7e06308dc481f222, 0x66e23c49eece3490),
    ("stencil3", 0x763c8712fb7ec3f6, 0x4648d25373ba5b19),
    ("rle_scan", 0x7eb1c6c01bb42e35, 0x44498dafa0dde114),
    ("strided_calls", 0x6f67f44d4532b228, 0x2c4e34186e401a22),
    ("region_shuffle", 0x763c8712fb7ec3f6, 0x4648d25373ba5b19),
    ("gather_window", 0xa626bf4d2aef29f4, 0x4d8f8191902d00f4),
    ("histogram", 0xab5818e8cb73502e, 0x60413ed34bf2d507),
    ("spmv_csr", 0x1847d41b92d6bf7d, 0x8ab51dbd0d3dcfe7),
    ("listchase", 0x16ce0b202d0c2537, 0xadf4cbcfb696d713),
    ("listchase_payload", 0x657a9109564d63a1, 0x94937c481ae8fd2a),
    ("aop_deref", 0xeda515000a23d003, 0x5a8f0b24380ef78c),
    ("hash_probe", 0x7eb1c6c01bb42e35, 0x44498dafa0dde114),
    ("btree_search", 0xd8d980f90841465a, 0xe030549e01a7add2),
    ("binsearch", 0x81953dccb81671f2, 0xc25bb677336985f1),
    ("phase_mix", 0x0ea6645232ae06d1, 0x6a7866191221fa10),
    ("bfs_rmat", 0x95114a985bbdae6d, 0xcead60b193ee5de4),
    ("pagerank_rmat", 0x8d9d3af3417031cc, 0x72008332ef36b2c1),
    ("cc_rmat", 0x59ab8bc2a11d8bc7, 0xb3973e23f7d3b3c4),
    ("sssp_road", 0xd62cda6f06b1e8b1, 0xf3642829ca974533),
    ("tc_rmat", 0xdf6822a6d4cb8017, 0x1db71c6f95624ff7),
    ("rgb2yuv", 0x6e77b0009c8c8ae7, 0xa5ed038b974765a7),
    ("kmeans_assign", 0x673c262fef49685a, 0x1f6765d02ea94260),
    ("rotate_img", 0x6f67f44d4532b228, 0x2c4e34186e401a22),
    ("mix_hash", 0x6f67f44d4532b228, 0x2c4e34186e401a22),
    ("streamcluster_dist", 0x6f67f44d4532b228, 0x2c4e34186e401a22),
    ("cg_band_spmv", 0x408514faeab5e4bf, 0x4f005dbbff9b8569),
    ("mg_relax3d", 0x6f67f44d4532b228, 0x2c4e34186e401a22),
    ("ft_transpose", 0x763c8712fb7ec3f6, 0x4648d25373ba5b19),
    ("ep_random", 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("is_bucket", 0xab5818e8cb73502e, 0x60413ed34bf2d507),
];

#[test]
fn every_kernel_image_matches_its_pinned_digest() {
    let specs = dol_workloads::all_workloads();
    assert_eq!(specs.len(), PINNED.len(), "one pin per kernel");
    let mut wrong = Vec::new();
    for (spec, &(name, d2018, d424242)) in specs.iter().zip(PINNED.iter()) {
        assert_eq!(spec.name, name, "pins follow all_workloads() order");
        for (seed, want) in [(2018, d2018), (424242, d424242)] {
            let got = image_digest(spec, seed);
            if got != want {
                wrong.push(format!("{name} seed={seed}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "memory images moved:\n{}",
        wrong.join("\n")
    );
}
