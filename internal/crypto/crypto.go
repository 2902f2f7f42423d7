// Package crypto provides the cryptographic primitives the simulated
// blockchain systems share: SHA-256 hash chaining for blocks and
// transactions, and ed25519 identities for node and client signatures.
//
// Identities are generated deterministically from a seed string so that test
// clusters are reproducible across runs.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Hash is a 32-byte SHA-256 digest.
type Hash [32]byte

// ZeroHash is the all-zero digest used as the predecessor of genesis blocks.
var ZeroHash Hash

// Sum hashes the concatenation of the given byte slices. New code on hot
// paths should prefer a pooled Hasher, which also avoids the variadic
// slice and per-part conversions at the call site.
func Sum(parts ...[]byte) Hash {
	h := AcquireHasher()
	for _, p := range parts {
		h.h.Write(p)
	}
	d := h.Sum()
	h.Release()
	return d
}

// SumString hashes a single string without converting it to a []byte.
func SumString(s string) Hash {
	h := AcquireHasher()
	h.WriteString(s)
	d := h.Sum()
	h.Release()
	return d
}

// String returns the hex encoding of the hash.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns the first 8 hex characters, for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// IsZero reports whether the hash is all zeroes.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Bytes returns the digest as a slice.
func (h Hash) Bytes() []byte { return h[:] }

// Combine hashes two hashes together, used for Merkle-style accumulation.
func Combine(a, b Hash) Hash {
	h := AcquireHasher()
	d := h.combine(a, b)
	h.Release()
	return d
}

// MerkleRoot computes a binary Merkle root over the given leaf hashes.
// An empty leaf set yields ZeroHash; odd levels duplicate the last node,
// matching the convention used by most chain implementations. The input is
// not modified; the fold happens in a pooled level buffer, so steady-state
// calls do not allocate.
func MerkleRoot(leaves []Hash) Hash {
	h := AcquireHasher()
	h.leaves = append(h.leaves[:0], leaves...)
	d := h.MerkleRoot()
	h.Release()
	return d
}

// Identity is a signing identity for a node or client.
type Identity struct {
	Name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewIdentity derives a deterministic identity from a name. The seed is the
// SHA-256 of the name, so the same name always yields the same key pair.
func NewIdentity(name string) *Identity {
	seed := sha256.Sum256([]byte("coconut-identity:" + name))
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Identity{
		Name: name,
		pub:  priv.Public().(ed25519.PublicKey),
		priv: priv,
	}
}

// Sign signs the message with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// Verify checks a signature produced by Sign against this identity's key.
func (id *Identity) Verify(msg, sig []byte) bool { return ed25519.Verify(id.pub, msg, sig) }

// Uint64Bytes encodes a uint64 big-endian, a helper for hashing integers.
func Uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// TxID derives a transaction identifier from a client name, a sequence
// number, and an arbitrary payload digest. Allocation-free.
func TxID(client string, seq uint64, payload []byte) Hash {
	h := AcquireHasher()
	h.WriteString(client)
	h.WriteUint64(seq)
	h.h.Write(payload)
	d := h.Sum()
	h.Release()
	return d
}

// FormatID renders a hash as "name-xxxxxxxx" for readable tracing.
func FormatID(prefix string, h Hash) string {
	return fmt.Sprintf("%s-%s", prefix, h.Short())
}
