package xcrypto

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"fmt"
)

// SigningKey is an ECDSA P-256 private key used for all signatures in the
// system: enclave quotes, service identities, and Glimmer contribution
// endorsements.
type SigningKey struct {
	priv *ecdsa.PrivateKey
}

// VerifyKey is the public half of a SigningKey.
type VerifyKey struct {
	pub *ecdsa.PublicKey
}

// NewSigningKey generates a fresh P-256 signing key.
func NewSigningKey() (*SigningKey, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: key generation: %w", err)
	}
	return &SigningKey{priv: priv}, nil
}

// Sign signs the SHA-256 digest of msg and returns an ASN.1 signature.
func (k *SigningKey) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, k.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: sign: %w", err)
	}
	return sig, nil
}

// Public returns the verification half of the key.
func (k *SigningKey) Public() *VerifyKey {
	return &VerifyKey{pub: &k.priv.PublicKey}
}

// Marshal serializes the private key (PKCS#8). Used to seal service signing
// keys to Glimmer enclaves.
func (k *SigningKey) Marshal() ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(k.priv)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: marshal signing key: %w", err)
	}
	return der, nil
}

// ParseSigningKey reverses SigningKey.Marshal.
func ParseSigningKey(der []byte) (*SigningKey, error) {
	key, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: parse signing key: %w", err)
	}
	priv, ok := key.(*ecdsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("xcrypto: parse signing key: not an ECDSA key")
	}
	return &SigningKey{priv: priv}, nil
}

// Verify reports whether sig is a valid signature over msg.
func (k *VerifyKey) Verify(msg, sig []byte) bool {
	return k.VerifyHash(sha256.Sum256(msg), sig)
}

// VerifyHash reports whether sig is a valid signature over a message
// whose SHA-256 digest is digest — Verify for callers that hash a
// message piecewise instead of holding it in one buffer.
func (k *VerifyKey) VerifyHash(digest [32]byte, sig []byte) bool {
	return ecdsa.VerifyASN1(k.pub, digest[:], sig)
}

// Marshal serializes the public key (PKIX DER). The encoding doubles as the
// key's canonical identity in wire messages and allowlists.
func (k *VerifyKey) Marshal() ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(k.pub)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: marshal verify key: %w", err)
	}
	return der, nil
}

// Fingerprint returns the SHA-256 of the marshaled public key.
func (k *VerifyKey) Fingerprint() [32]byte {
	der, err := k.Marshal()
	if err != nil {
		// P-256 public keys always marshal; a failure means memory
		// corruption, not a recoverable condition.
		panic("xcrypto: impossible marshal failure: " + err.Error())
	}
	return sha256.Sum256(der)
}

// ParseVerifyKey reverses VerifyKey.Marshal.
func ParseVerifyKey(der []byte) (*VerifyKey, error) {
	key, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: parse verify key: %w", err)
	}
	pub, ok := key.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("xcrypto: parse verify key: not an ECDSA key")
	}
	return &VerifyKey{pub: pub}, nil
}

// DHKey is an X25519 private key used for attested Diffie-Hellman
// handshakes between Glimmers, services, and clients.
type DHKey struct {
	priv *ecdh.PrivateKey
}

// NewDHKey generates a fresh X25519 key pair.
func NewDHKey() (*DHKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: DH key generation: %w", err)
	}
	return &DHKey{priv: priv}, nil
}

// PublicBytes returns the 32-byte public value to send to the peer.
func (k *DHKey) PublicBytes() []byte {
	return k.priv.PublicKey().Bytes()
}

// Bytes returns the private key material, for Shamir-style backup schemes.
func (k *DHKey) Bytes() []byte { return k.priv.Bytes() }

// ParseDHKey reconstructs a DHKey from Bytes output.
func ParseDHKey(b []byte) (*DHKey, error) {
	priv, err := ecdh.X25519().NewPrivateKey(b)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: parse DH key: %w", err)
	}
	return &DHKey{priv: priv}, nil
}

// Shared computes the raw shared secret with the peer's public value.
func (k *DHKey) Shared(peerPublic []byte) ([]byte, error) {
	peer, err := ecdh.X25519().NewPublicKey(peerPublic)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: bad peer DH value: %w", err)
	}
	secret, err := k.priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: ECDH: %w", err)
	}
	return secret, nil
}
