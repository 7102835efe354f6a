package detector

import "math"

// Deterministic counter-based randomness. Every stochastic decision a
// simulated detector makes is a pure function of (model, sequence, frame,
// object, purpose), so detectors are reproducible, independent of
// evaluation order, and — critically — a detector restricted to regions
// makes exactly the same per-object decision it would have made on the
// full frame. This is what lets the cascade's accuracy *emerge* from the
// profiles instead of being scripted.
//
// hashKey is a left fold, so every key that starts with the same words
// continues from the same intermediate state: hashKey(a, b, c) is
// mix(hashKey(a, b), c) with hashKey() the seed. The detector exploits
// this identity instead of re-folding shared prefixes: it caches the
// state after (model, sequence), derives each frame's key with one mix,
// folds each object's track ID once and its purpose tags with one mix
// apiece, and keeps the unscaled per-track bias draw, which depends on
// neither frame nor mask, in a small table (see drawCache). The keys,
// and therefore every variate, are bit-identical to calling hashKey on
// the full word sequence.

// Purpose tags keep different random decisions about the same object
// decorrelated.
const (
	tagDetect uint64 = 0x9e3779b97f4a7c15
	tagBias   uint64 = 0xbf58476d1ce4e5b9
	tagLocX   uint64 = 0x94d049bb133111eb
	tagLocY   uint64 = 0x2545f4914f6cdd1d
	tagLocW   uint64 = 0xd6e8feb86659fd93
	tagLocH   uint64 = 0xa5a5a5a5a5a5a5a5
	tagConf   uint64 = 0xc2b2ae3d27d4eb4f
	tagFP     uint64 = 0x165667b19e3779f9
)

// hashString is FNV-1a over the string bytes.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix combines hash state with a new word using the splitmix64 finalizer.
func mix(h, k uint64) uint64 {
	h ^= k + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	z := h
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// hashSeed is the state hashKey starts its fold from.
const hashSeed uint64 = 0x853c49e6748fea9b

// hashKey folds a sequence of words into one 64-bit key.
func hashKey(parts ...uint64) uint64 {
	h := hashSeed
	for _, p := range parts {
		h = mix(h, p)
	}
	return h
}

// uniform maps a hash to [0, 1).
func uniform(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// normal maps a hash to a standard normal variate via Box–Muller using
// two decorrelated uniforms derived from the hash.
func normal(h uint64) float64 {
	u1 := uniform(mix(h, 0x2545f4914f6cdd1d))
	u2 := uniform(mix(h, 0xd6e8feb86659fd93))
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// sigmoid is the logistic function.
func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }
