package main

import "math/rand/v2"

// PCG streams of the workload seed: one per independent random choice, so
// that adding draws to one never shifts another.
const (
	streamOps    = 0x6f70 // per-op algorithm seeds
	streamWarmup = 0x7775 // warm-up op seeds
)

// seedList draws n non-zero 53-bit seeds (exact in JSON) from stream.
func seedList(seed, stream uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, stream))
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 + rng.Uint64N(1<<53-1)
	}
	return out
}
