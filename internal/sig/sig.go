// Package sig models Android's app-signing machinery: developer keys,
// vendor platform keys, certificates and signature blocks.
//
// Signatures are HMAC-SHA256 values under a secret deterministically derived
// from the key's subject name. This keeps the simulation dependency-free and
// reproducible while preserving every property the paper's attacks and
// defenses rely on: signature continuity across updates, platform-key
// signature-level permission grants, and the fact that a repackaged APK
// cannot carry the original developer's signature. No component in this
// repository "forges" a signature by exploiting the derivation; Verify is
// treated as a trusted oracle, exactly like the real crypto.
package sig

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// DigestSize is the size of all digests and fingerprints in bytes.
const DigestSize = sha256.Size

// Digest is a SHA-256 hash value.
type Digest [DigestSize]byte

// Hex returns the digest as a lowercase hex string.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Short returns an abbreviated hex form for logs and traces.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// Sum hashes data.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// Certificate identifies a signing key. Two keys are "the same signer" iff
// their fingerprints match — this is the identity PackageManagerService
// compares during updates and signature-level permission grants.
type Certificate struct {
	Subject     string `json:"subject"`
	Fingerprint Digest `json:"fingerprint"`
}

// IsZero reports whether the certificate is the zero value (unsigned).
func (c Certificate) IsZero() bool { return c == Certificate{} }

// Equal reports whether two certificates identify the same signer.
func (c Certificate) Equal(o Certificate) bool { return c == o }

func (c Certificate) String() string {
	return fmt.Sprintf("CN=%s/%s", c.Subject, c.Fingerprint.Short())
}

// Key is a signing key. Create keys with NewKey.
type Key struct {
	subject string
	secret  Digest
	cert    Certificate
}

// NewKey derives a key for subject. The derivation is deterministic so
// corpora are reproducible: the same subject always yields the same key.
func NewKey(subject string) *Key {
	secret := sha256.Sum256([]byte("gia-signing-key:" + subject))
	fp := sha256.Sum256(append([]byte("gia-cert:"), secret[:]...))
	return &Key{
		subject: subject,
		secret:  secret,
		cert:    Certificate{Subject: subject, Fingerprint: fp},
	}
}

// Subject returns the key's subject name.
func (k *Key) Subject() string { return k.subject }

// Certificate returns the public certificate for the key.
func (k *Key) Certificate() Certificate { return k.cert }

// Sign produces a signature block over digest.
func (k *Key) Sign(digest Digest) Signature {
	mac := hmac.New(sha256.New, k.secret[:])
	mac.Write(digest[:])
	var value Digest
	copy(value[:], mac.Sum(nil))
	return Signature{Cert: k.cert, Value: value}
}

// Signature is a signature block: the signer's certificate plus the MAC
// value over the signed digest.
type Signature struct {
	Cert  Certificate `json:"cert"`
	Value Digest      `json:"value"`
}

// IsZero reports whether the signature is absent.
func (s Signature) IsZero() bool { return s == Signature{} }

// Verify checks that sig is a valid signature over digest by the key named
// in sig.Cert. It re-derives the subject's key material, which stands in for
// public-key verification.
func Verify(sig Signature, digest Digest) bool {
	if sig.IsZero() {
		return false
	}
	expected := NewKey(sig.Cert.Subject)
	if !expected.Certificate().Equal(sig.Cert) {
		// The certificate does not belong to the claimed subject.
		return false
	}
	want := expected.Sign(digest)
	return hmac.Equal(want.Value[:], sig.Value[:])
}
