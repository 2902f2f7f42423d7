package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Dist is a pluggable key distribution: it yields the key index targeted by
// the i-th operation of one workload thread. Streams must be deterministic
// in (keys, stream, seed) — two runs with the same seed draw identical
// index sequences.
type Dist interface {
	// Name identifies the distribution in reports and flags.
	Name() string
	// Shared reports whether indices address one key space shared by every
	// thread (true) or a per-thread partition (false).
	Shared() bool
	// Stream returns the index source for one workload thread. keys is the
	// shared key-space size; stream is the global thread index.
	Stream(keys, stream int, seed int64) func(i uint64) uint64
}

// Partitioned is the paper-faithful default: each thread owns a disjoint
// key range and walks it sequentially, so "no duplicates occur during
// writing" (§4.1) and no two threads ever touch the same key.
type Partitioned struct{}

// Name implements Dist.
func (Partitioned) Name() string { return "partitioned" }

// Shared implements Dist.
func (Partitioned) Shared() bool { return false }

// Stream implements Dist: the identity walk over the thread's own range.
func (Partitioned) Stream(int, int, int64) func(i uint64) uint64 {
	return func(i uint64) uint64 { return i }
}

// SharedSequential makes every thread walk the same sequence over the
// shared key space — maximal overlap, the adversarial upper bound for
// conflict rates.
type SharedSequential struct{}

// Name implements Dist.
func (SharedSequential) Name() string { return "sequential" }

// Shared implements Dist.
func (SharedSequential) Shared() bool { return true }

// Stream implements Dist.
func (SharedSequential) Stream(keys, _ int, _ int64) func(i uint64) uint64 {
	return func(i uint64) uint64 { return i % uint64(keys) }
}

// Zipfian skews access over the shared key space with exponent S: a few
// keys absorb most operations, the canonical model of real-world hot keys
// (YCSB's default request distribution).
type Zipfian struct {
	// S is the skew exponent (> 1; larger is more skewed). Default 1.1.
	S float64
}

// Name implements Dist.
func (z Zipfian) Name() string { return fmt.Sprintf("zipfian:%.2f", z.s()) }

func (z Zipfian) s() float64 {
	if z.S <= 1 {
		return 1.1
	}
	return z.S
}

// Shared implements Dist.
func (Zipfian) Shared() bool { return true }

// Stream implements Dist: a per-thread seeded rand.Zipf draw.
func (z Zipfian) Stream(keys, stream int, seed int64) func(i uint64) uint64 {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed)*0x2545f4914f6cdd1d + uint64(stream)))))
	zipf := rand.NewZipf(rng, z.s(), 1, uint64(keys-1))
	return func(uint64) uint64 { return zipf.Uint64() }
}

// Hotspot concentrates HotOps of the operations on the HotKeys fraction of
// the key space (YCSB's hotspot distribution): e.g. 90% of operations on
// 10% of keys.
type Hotspot struct {
	// HotKeys is the fraction of the key space that is hot (0, 1]. Default
	// 0.1.
	HotKeys float64
	// HotOps is the fraction of operations that target the hot set [0, 1].
	// Default 0.9.
	HotOps float64
}

// Name implements Dist.
func (h Hotspot) Name() string {
	return fmt.Sprintf("hotspot:%.2f:%.2f", h.hotKeys(), h.hotOps())
}

func (h Hotspot) hotKeys() float64 {
	if h.HotKeys <= 0 || h.HotKeys > 1 {
		return 0.1
	}
	return h.HotKeys
}

func (h Hotspot) hotOps() float64 {
	if h.HotOps <= 0 || h.HotOps > 1 {
		return 0.9
	}
	return h.HotOps
}

// Shared implements Dist.
func (Hotspot) Shared() bool { return true }

// Stream implements Dist.
func (h Hotspot) Stream(keys, stream int, seed int64) func(i uint64) uint64 {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed)*0xda942042e4dd58b5 + uint64(stream)))))
	hot := int(float64(keys) * h.hotKeys())
	if hot < 1 {
		hot = 1
	}
	cold := keys - hot
	hotOps := h.hotOps()
	return func(uint64) uint64 {
		if cold <= 0 || rng.Float64() < hotOps {
			return uint64(rng.Intn(hot))
		}
		return uint64(hot + rng.Intn(cold))
	}
}

// DistByName parses a distribution flag value: "partitioned", "sequential",
// "zipfian[:S]", or "hotspot[:KEYFRAC[:OPFRAC]]".
func DistByName(name string) (Dist, error) {
	switch {
	case name == "" || name == "partitioned":
		return Partitioned{}, nil
	case name == "sequential" || name == "shared":
		return SharedSequential{}, nil
	case name == "zipfian":
		return Zipfian{}, nil
	case strings.HasPrefix(name, "zipfian:"):
		s, err := strconv.ParseFloat(strings.TrimPrefix(name, "zipfian:"), 64)
		if err != nil || s <= 1 {
			return nil, fmt.Errorf("workload: bad zipfian skew in %q (want zipfian:S, S > 1)", name)
		}
		return Zipfian{S: s}, nil
	case name == "hotspot":
		return Hotspot{}, nil
	case strings.HasPrefix(name, "hotspot:"):
		parts := strings.Split(strings.TrimPrefix(name, "hotspot:"), ":")
		h := Hotspot{}
		kf, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || kf <= 0 || kf > 1 {
			return nil, fmt.Errorf("workload: bad hotspot key fraction in %q", name)
		}
		h.HotKeys = kf
		if len(parts) > 1 {
			of, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || of <= 0 || of > 1 {
				return nil, fmt.Errorf("workload: bad hotspot op fraction in %q", name)
			}
			h.HotOps = of
		}
		return h, nil
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q (want partitioned, sequential, zipfian[:S], or hotspot[:KF[:OF]])", name)
	}
}

// DistNames lists the accepted key-distribution specs for help output.
func DistNames() []string {
	return []string{"partitioned", "sequential", "zipfian[:S]", "hotspot[:KEYFRAC[:OPFRAC]]"}
}
