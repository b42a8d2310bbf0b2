// The chain world-line trajectory pins: `((l, m, jx, jz, β), seed,
// sweeps, pin)`, every sweep fingerprinted from the Néel start on.
//
// Included by `tests/trajectory_pins.rs`, which runs `Worldline::sweep`
// on every case, and by `qmc-worldline`'s engine tests, which run the
// keyed scalar oracle (`sweep_scalar`) in its place: both must reproduce
// every literal. Each includer defines `ChainCase` and `wl`.

#[rustfmt::skip]
const CHAIN: &[ChainCase] = &[
    // The benchmark's `pt_xxz_ckpt` rung shape at its two hottest rungs.
    ((32, 32, 1.0, 1.0, 2.0), 51, 200, wl(0xdafc0f92b973fd18, 0x02ef6ee37cbf2325, 200, [4919, 144749, 2505, 6400])),
    ((32, 32, 1.0, 1.0, 2.4), 52, 200, wl(0xde7975610d6ac2eb, 0x42fb0900c17da325, 200, [6800, 149001, 1601, 6400])),
    // The smallest chain (every neighbour index wraps), odd m, XXZ both ways.
    ((4, 2, 1.0, 0.7, 1.3), 53, 400, wl(0xe794c6dda9217881, 0x98808ec829258c25, 400, [338, 1908, 1041, 1600])),
    ((6, 3, 1.0, 1.0, 1.5), 54, 400, wl(0x0ea3e59a25b39aa3, 0xaa58ba7ef6bc6765, 400, [754, 4551, 1218, 2400])),
    ((8, 4, 0.6, 1.0, 1.0), 55, 400, wl(0xe7976c1225002216, 0x12c58812fcc00725, 400, [296, 7897, 2315, 3200])),
    ((16, 8, 1.0, 0.3, 4.0), 56, 300, wl(0x3f91fc48e8d523db, 0xb83a47f5e6e66fe5, 300, [7057, 23301, 1054, 4800])),
    ((64, 16, 1.0, 1.0, 1.0), 57, 150, wl(0x4e1418a16fbec3aa, 0xc763640c022ba325, 150, [2655, 98198, 6129, 9600])),
    // Rows past one word: a second word holding two columns, and three
    // words with the periodic seam inside a partial one.
    ((66, 8, 1.0, 1.0, 1.0), 58, 150, wl(0xd2116fe8350f4d21, 0x513fa4138844dd25, 150, [2197, 49895, 6520, 9900])),
    ((130, 6, 1.0, 0.8, 1.5), 59, 100, wl(0xb478299a2db784ab, 0xdefd1f61992860a5, 100, [5464, 49791, 7094, 13000])),
];
