package crypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSumDeterministic(t *testing.T) {
	a := Sum([]byte("hello"), []byte("world"))
	b := Sum([]byte("hello"), []byte("world"))
	if a != b {
		t.Fatal("same input must hash to same digest")
	}
	c := Sum([]byte("helloworld"))
	if a != c {
		t.Fatal("Sum must behave as concatenation")
	}
}

func TestSumDistinct(t *testing.T) {
	if Sum([]byte("a")) == Sum([]byte("b")) {
		t.Fatal("different inputs collided")
	}
}

func TestHashStringRoundtrip(t *testing.T) {
	h := SumString("x")
	if len(h.String()) != 64 {
		t.Fatalf("hex length = %d, want 64", len(h.String()))
	}
	if len(h.Short()) != 8 {
		t.Fatalf("short length = %d, want 8", len(h.Short()))
	}
}

func TestZeroHash(t *testing.T) {
	if !ZeroHash.IsZero() {
		t.Fatal("ZeroHash.IsZero() = false")
	}
	if SumString("x").IsZero() {
		t.Fatal("nonzero hash reported zero")
	}
}

func TestMerkleRootEmpty(t *testing.T) {
	if got := MerkleRoot(nil); !got.IsZero() {
		t.Fatalf("MerkleRoot(nil) = %v, want zero", got)
	}
}

func TestMerkleRootSingle(t *testing.T) {
	leaf := SumString("tx")
	if got := MerkleRoot([]Hash{leaf}); got != leaf {
		t.Fatalf("single-leaf root = %v, want the leaf %v", got, leaf)
	}
}

func TestMerkleRootOrderSensitive(t *testing.T) {
	a, b := SumString("a"), SumString("b")
	if MerkleRoot([]Hash{a, b}) == MerkleRoot([]Hash{b, a}) {
		t.Fatal("merkle root must depend on leaf order")
	}
}

func TestMerkleRootOddLeaves(t *testing.T) {
	leaves := []Hash{SumString("1"), SumString("2"), SumString("3")}
	root := MerkleRoot(leaves)
	// Duplicating the last leaf is the convention: 3 leaves == [1,2,3,3].
	want := Combine(Combine(leaves[0], leaves[1]), Combine(leaves[2], leaves[2]))
	if root != want {
		t.Fatalf("odd-leaf root = %v, want %v", root, want)
	}
}

func TestIdentityDeterministic(t *testing.T) {
	msg := []byte("block payload")
	a := NewIdentity("node-1")
	b := NewIdentity("node-1")
	if !b.Verify(msg, a.Sign(msg)) {
		t.Fatal("same name must derive same key")
	}
	c := NewIdentity("node-2")
	if c.Verify(msg, a.Sign(msg)) {
		t.Fatal("different names derived same key")
	}
}

func TestSignVerify(t *testing.T) {
	id := NewIdentity("signer")
	msg := []byte("block payload")
	sig := id.Sign(msg)
	if !id.Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if id.Verify([]byte("tampered"), sig) {
		t.Fatal("signature verified against wrong message")
	}
	other := NewIdentity("other")
	if other.Verify(msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestTxIDDistinguishesSeq(t *testing.T) {
	if TxID("c", 1, []byte("p")) == TxID("c", 2, []byte("p")) {
		t.Fatal("tx ids with different sequence numbers collided")
	}
	if TxID("c1", 1, []byte("p")) == TxID("c2", 1, []byte("p")) {
		t.Fatal("tx ids with different clients collided")
	}
}

func TestFormatID(t *testing.T) {
	h := SumString("x")
	got := FormatID("tx", h)
	want := "tx-" + h.Short()
	if got != want {
		t.Fatalf("FormatID = %q, want %q", got, want)
	}
}

// Property: signing is always verifiable for arbitrary messages.
func TestPropertySignAlwaysVerifies(t *testing.T) {
	id := NewIdentity("prop")
	f := func(msg []byte) bool {
		return id.Verify(msg, id.Sign(msg))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MerkleRoot is deterministic for arbitrary leaf sets.
func TestPropertyMerkleDeterministic(t *testing.T) {
	f := func(data [][]byte) bool {
		leaves := make([]Hash, len(data))
		for i, d := range data {
			leaves[i] = Sum(d)
		}
		return MerkleRoot(leaves) == MerkleRoot(leaves)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Uint64Bytes is injective on sampled values.
func TestPropertyUint64BytesInjective(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return bytes.Equal(Uint64Bytes(a), Uint64Bytes(b))
		}
		return !bytes.Equal(Uint64Bytes(a), Uint64Bytes(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
