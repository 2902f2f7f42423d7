package crypto

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// refSum is the reference implementation the pooled Hasher must match.
func refSum(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// refMerkle is the pre-Hasher recursive fold, kept as the golden model.
func refMerkle(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return ZeroHash
	}
	level := make([]Hash, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		next := make([]Hash, 0, len(level)/2)
		for i := 0; i < len(level); i += 2 {
			next = append(next, refSum(level[i][:], level[i+1][:]))
		}
		level = next
	}
	return level[0]
}

func TestHasherStreamingMatchesSum(t *testing.T) {
	h := AcquireHasher()
	defer h.Release()
	h.WriteString("client-7")
	h.WriteUint64(42)
	h.Write([]byte{1, 2, 3})
	h.WriteHash(SumString("payload"))
	got := h.Sum()

	p := SumString("payload")
	want := refSum([]byte("client-7"), Uint64Bytes(42), []byte{1, 2, 3}, p[:])
	if got != want {
		t.Fatalf("streamed digest %s != reference %s", got, want)
	}
}

func TestHasherSumMatchesPackageSum(t *testing.T) {
	if Sum([]byte("a"), []byte("bc")) != refSum([]byte("a"), []byte("bc")) {
		t.Fatal("Sum diverged from reference")
	}
	if SumString("hello") != refSum([]byte("hello")) {
		t.Fatal("SumString diverged from reference")
	}
	a, b := SumString("a"), SumString("b")
	if Combine(a, b) != refSum(a[:], b[:]) {
		t.Fatal("Combine diverged from reference")
	}
	if TxID("cl", 9, []byte("pp")) != refSum([]byte("cl"), Uint64Bytes(9), []byte("pp")) {
		t.Fatal("TxID diverged from reference")
	}
}

func TestHasherMerkleRootMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 17, 100} {
		leaves := make([]Hash, n)
		for i := range leaves {
			leaves[i] = SumString(fmt.Sprintf("leaf-%d", i))
		}
		want := refMerkle(leaves)
		if got := MerkleRoot(leaves); got != want {
			t.Fatalf("n=%d: MerkleRoot = %s, want %s", n, got, want)
		}
		h := AcquireHasher()
		for _, l := range leaves {
			h.AppendLeaf(l)
		}
		if got := h.MerkleRoot(); got != want {
			t.Fatalf("n=%d: Hasher.MerkleRoot = %s, want %s", n, got, want)
		}
		if h.LeafCount() != 0 {
			t.Fatalf("n=%d: leaves not cleared after fold", n)
		}
		h.Release()
	}
}

func TestMerkleRootDoesNotMutateInput(t *testing.T) {
	leaves := make([]Hash, 5)
	for i := range leaves {
		leaves[i] = SumString(fmt.Sprintf("l%d", i))
	}
	snapshot := make([]Hash, len(leaves))
	copy(snapshot, leaves)
	_ = MerkleRoot(leaves)
	for i := range leaves {
		if leaves[i] != snapshot[i] {
			t.Fatalf("leaf %d mutated by MerkleRoot", i)
		}
	}
}

func TestHasherReuseAfterRelease(t *testing.T) {
	// Exercising acquire/release cycles must keep digests stable even when
	// the pool hands back a previously used instance.
	want := SumString("stable")
	for i := 0; i < 100; i++ {
		h := AcquireHasher()
		h.AppendLeaf(ZeroHash) // leave leaf garbage behind on purpose
		h.WriteString("stable")
		if got := h.Sum(); got != want {
			t.Fatalf("iteration %d: digest drifted: %s != %s", i, got, want)
		}
		h.Release()
	}
}

func TestHasherHotPathsDoNotAllocate(t *testing.T) {
	leaves := make([]Hash, 64)
	for i := range leaves {
		leaves[i] = SumString(fmt.Sprintf("leaf-%d", i))
	}
	payload := []byte("p")
	if raceDetector {
		t.Skip("every pin goes through hasherPool, which the race detector drains at random")
	}
	// Warm the pool so steady state is measured.
	_ = MerkleRoot(leaves)
	_ = TxID("client", 1, payload)

	if n := testing.AllocsPerRun(200, func() { _ = TxID("client", 1, payload) }); n > 0 {
		t.Fatalf("TxID allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = SumString("some-string-payload") }); n > 0 {
		t.Fatalf("SumString allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { _ = MerkleRoot(leaves) }); n > 0 {
		t.Fatalf("MerkleRoot allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		h := AcquireHasher()
		h.WriteString("abc")
		h.WriteUint64(77)
		h.WriteHash(ZeroHash)
		_ = h.Sum()
		h.Release()
	}); n > 0 {
		t.Fatalf("streamed digest allocates %v times per op, want 0", n)
	}
}

func BenchmarkSumString(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SumString("a-typical-endpoint-or-key-name")
	}
}

func BenchmarkTxIDDerive(b *testing.B) {
	payload := []byte("payload-digest-bytes-aaaaaaaaaaa")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = TxID("client-3", uint64(i), payload)
	}
}

func BenchmarkMerkleRoot(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		leaves := make([]Hash, n)
		for i := range leaves {
			leaves[i] = SumString(fmt.Sprintf("leaf-%d", i))
		}
		b.Run(fmt.Sprintf("leaves=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = MerkleRoot(leaves)
			}
		})
	}
}
