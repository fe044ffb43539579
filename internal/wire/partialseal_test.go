package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"glimmers/internal/xcrypto"
)

// The merge plane is cross-process protocol surface: a coordinator on one
// version must parse seals from nodes on another. Fixtures are frozen the
// same way durable's are — regenerate deliberately with
// GLIMMERS_UPDATE_GOLDEN=1 go test ./internal/wire.

func maybeUpdateGolden(t *testing.T, name string, data []byte) bool {
	t.Helper()
	if os.Getenv("GLIMMERS_UPDATE_GOLDEN") == "" {
		return false
	}
	if err := os.WriteFile(filepath.Join("testdata", name), []byte(hex.EncodeToString(data)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return true
}

// goldenPartialSeal covers every field shape: a multi-lane sum, two
// digests in canonical order, and a non-empty rejection count.
func goldenPartialSeal() PartialSeal {
	return PartialSeal{
		Service:     "iot.example",
		Round:       9,
		NodeID:      2,
		ShardCount:  3,
		Measurement: bytes.Repeat([]byte{0x22}, MeasurementLen),
		NodeKey:     []byte{0x30, 0x59, 0x01, 0x02, 0x03},
		Count:       2,
		Rejected:    1,
		Sum:         []uint64{5, 0xFFFFFFFFFFFFFFFF, 7},
		Digests: append(
			bytes.Repeat([]byte{0x0A}, SealDigestLen),
			bytes.Repeat([]byte{0x0B}, SealDigestLen)...),
		Signature: []byte{0xAA, 0xBB, 0xCC, 0xDD},
	}
}

func goldenMergeResult() MergeResult {
	return MergeResult{
		Service:  "iot.example",
		Round:    9,
		Expect:   3,
		Merged:   2,
		Count:    41,
		Rejected: 5,
		Refused:  1,
		Sum:      []uint64{5, 0xFFFFFFFFFFFFFFFF, 7},
	}
}

func TestGoldenPartialSeal(t *testing.T) {
	got := EncodePartialSeal(goldenPartialSeal())
	if maybeUpdateGolden(t, "partial_seal.hex", got) {
		t.Skip("updated golden fixture")
	}
	want := readGolden(t, "partial_seal.hex")
	if !bytes.Equal(got, want) {
		t.Fatalf("partial seal encoding changed:\n got: %x\nwant: %x", got, want)
	}
	dec, err := DecodePartialSeal(want)
	if err != nil {
		t.Fatal(err)
	}
	if re := EncodePartialSeal(dec); !bytes.Equal(re, want) {
		t.Fatalf("decode/encode not canonical")
	}
	if dec.DigestCount() != 2 {
		t.Fatalf("digest count = %d", dec.DigestCount())
	}
	if d := dec.DigestAt(1); d != [SealDigestLen]byte(bytes.Repeat([]byte{0x0B}, SealDigestLen)) {
		t.Fatalf("digest 1 = %x", d)
	}
}

func TestGoldenPartialSealPreimage(t *testing.T) {
	pre := goldenPartialSeal().SignedBytes()
	if maybeUpdateGolden(t, "partial_seal_preimage.hex", pre) {
		t.Skip("updated golden fixture")
	}
	want := readGolden(t, "partial_seal_preimage.hex")
	if !bytes.Equal(pre, want) {
		t.Fatalf("partial seal signing preimage changed:\n got: %x\nwant: %x", pre, want)
	}
	// The preimage must differ from the transport encoding (domain tag in
	// front, signature absent) so a seal can never be replayed as its own
	// signing input.
	if bytes.Equal(pre, EncodePartialSeal(goldenPartialSeal())) {
		t.Fatal("signing preimage equals transport encoding")
	}
}

func TestGoldenMergeResult(t *testing.T) {
	got := EncodeMergeResult(goldenMergeResult())
	if maybeUpdateGolden(t, "merge_result.hex", got) {
		t.Skip("updated golden fixture")
	}
	want := readGolden(t, "merge_result.hex")
	if !bytes.Equal(got, want) {
		t.Fatalf("merge result encoding changed:\n got: %x\nwant: %x", got, want)
	}
	dec, err := DecodeMergeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if re := EncodeMergeResult(dec); !bytes.Equal(re, want) {
		t.Fatalf("decode/encode not canonical")
	}
}

// TestPartialSealDecodeRefusals pins the structural refusal surface the
// fuzz target also walks: truncation, trailing bytes, wrong-length fixed
// fields, digest/count disagreement, and non-canonical digest order.
func TestPartialSealDecodeRefusals(t *testing.T) {
	seal := EncodePartialSeal(goldenPartialSeal())
	for name, data := range map[string][]byte{
		"truncated": seal[:len(seal)-2],
		"trailing":  append(append([]byte(nil), seal...), 0x00),
		"garbage":   {0xFF, 0xFF, 0xFF, 0xFF},
		"empty":     {},
	} {
		if _, err := DecodePartialSeal(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	shortMeas := goldenPartialSeal()
	shortMeas.Measurement = shortMeas.Measurement[:8]
	if _, err := DecodePartialSeal(EncodePartialSeal(shortMeas)); err == nil {
		t.Error("accepted seal with short measurement")
	}

	raggedDigests := goldenPartialSeal()
	raggedDigests.Digests = raggedDigests.Digests[:SealDigestLen+7]
	if _, err := DecodePartialSeal(EncodePartialSeal(raggedDigests)); err == nil {
		t.Error("accepted seal with ragged digest block")
	}

	countMismatch := goldenPartialSeal()
	countMismatch.Count = 5
	if _, err := DecodePartialSeal(EncodePartialSeal(countMismatch)); err == nil {
		t.Error("accepted seal whose count disagrees with its digests")
	}

	// Descending order: swap the two canonical digests.
	descending := goldenPartialSeal()
	descending.Digests = append(
		bytes.Repeat([]byte{0x0B}, SealDigestLen),
		bytes.Repeat([]byte{0x0A}, SealDigestLen)...)
	if _, err := DecodePartialSeal(EncodePartialSeal(descending)); err == nil {
		t.Error("accepted seal with descending digests")
	}

	// Duplicate digest: strictness, not mere sortedness.
	duplicated := goldenPartialSeal()
	duplicated.Digests = append(
		bytes.Repeat([]byte{0x0A}, SealDigestLen),
		bytes.Repeat([]byte{0x0A}, SealDigestLen)...)
	if _, err := DecodePartialSeal(EncodePartialSeal(duplicated)); err == nil {
		t.Error("accepted seal with duplicate digests")
	}

	if _, err := DecodeMergeResult([]byte{0xFF, 0xFF}); err == nil {
		t.Error("accepted garbage merge result")
	}
	mr := EncodeMergeResult(goldenMergeResult())
	if _, err := DecodeMergeResult(mr[:len(mr)-1]); err == nil {
		t.Error("accepted truncated merge result")
	}
}

// An empty partial (node owned the shard but nothing arrived) is legal:
// zero count, zero digests, zero sum lanes still present.
func TestPartialSealEmpty(t *testing.T) {
	empty := PartialSeal{
		Service:     "iot.example",
		Round:       1,
		ShardCount:  2,
		Measurement: make([]byte, MeasurementLen),
		Sum:         make([]uint64, 4),
	}
	dec, err := DecodePartialSeal(EncodePartialSeal(empty))
	if err != nil {
		t.Fatal(err)
	}
	if dec.DigestCount() != 0 || dec.Count != 0 {
		t.Fatalf("empty seal decoded as count=%d digests=%d", dec.Count, dec.DigestCount())
	}
}

// randomPartialSeal builds a seal with n ascending random digests and a
// dim-lane sum: the shapes a real export produces, at any size.
func randomPartialSeal(rng *rand.Rand, n, dim int) PartialSeal {
	s := goldenPartialSeal()
	s.Count = uint64(n)
	s.Sum = make([]uint64, dim)
	for i := range s.Sum {
		s.Sum[i] = rng.Uint64()
	}
	s.Digests = make([]byte, n*SealDigestLen)
	// Stride the first byte pair so the digests ascend strictly whatever
	// the random tail holds.
	for i := 0; i < n; i++ {
		d := s.Digests[i*SealDigestLen : (i+1)*SealDigestLen]
		rng.Read(d)
		d[0], d[1] = byte(i>>8), byte(i)
	}
	return s
}

// TestSealPartialMatchesEncode pins the one-buffer sealing path to the
// two-pass one: sign sees exactly SignedBytes, and the result is
// EncodePartialSeal of the seal carrying the returned signature.
func TestSealPartialMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	empty := goldenPartialSeal()
	empty.Count, empty.Digests = 0, nil
	long := bytes.Repeat([]byte{0x5A}, 100) // past sealSigReserve: the buffer grows
	for name, c := range map[string]struct {
		seal PartialSeal
		sig  []byte
	}{
		"golden":  {goldenPartialSeal(), goldenPartialSeal().Signature},
		"empty":   {empty, []byte{0x01}},
		"wide":    {randomPartialSeal(rng, 300, 256), bytes.Repeat([]byte{0x30}, 72)},
		"longsig": {randomPartialSeal(rng, 3, 4), long},
	} {
		t.Run(name, func(t *testing.T) {
			var preimage []byte
			got, err := SealPartial(c.seal, func(pre []byte) ([]byte, error) {
				preimage = append([]byte(nil), pre...)
				return c.sig, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(preimage, c.seal.SignedBytes()) {
				t.Fatalf("sign saw %x, want SignedBytes %x", preimage, c.seal.SignedBytes())
			}
			c.seal.Signature = c.sig
			if want := EncodePartialSeal(c.seal); !bytes.Equal(got, want) {
				t.Fatalf("SealPartial:\n got: %x\nwant: %x", got, want)
			}
		})
	}
	if got, err := SealPartial(goldenPartialSeal(), func([]byte) ([]byte, error) {
		return nil, errors.New("no key")
	}); err == nil || got != nil {
		t.Fatalf("sign failure returned %x, %v", got, err)
	}
}

// TestPartialSealCrossVerify: seals signed the two-pass way verify
// through SignedHash and VerifyHash, one-buffer seals verify through
// SignedBytes and Verify, and a decoded seal's SignedHash equals the
// hash of its re-encoded preimage.
func TestPartialSealCrossVerify(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	pub := key.Public()
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 64, 1024} {
		s := randomPartialSeal(rng, n, 16)

		old := s
		if old.Signature, err = key.Sign(old.SignedBytes()); err != nil {
			t.Fatal(err)
		}
		dec, err := DecodePartialSeal(EncodePartialSeal(old))
		if err != nil {
			t.Fatal(err)
		}
		if dec.SignedHash() != sha256.Sum256(dec.SignedBytes()) {
			t.Fatalf("n=%d: decoded SignedHash differs from the re-encoded preimage's hash", n)
		}
		if !pub.VerifyHash(dec.SignedHash(), dec.Signature) {
			t.Fatalf("n=%d: two-pass seal fails VerifyHash(SignedHash)", n)
		}

		raw, err := SealPartial(s, key.Sign)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err = DecodePartialSeal(raw); err != nil {
			t.Fatal(err)
		}
		if !pub.Verify(dec.SignedBytes(), dec.Signature) {
			t.Fatalf("n=%d: one-buffer seal fails Verify(SignedBytes)", n)
		}
		if !pub.VerifyHash(dec.SignedHash(), dec.Signature) {
			t.Fatalf("n=%d: one-buffer seal fails VerifyHash(SignedHash)", n)
		}
		// A hand-built seal (no received block) hashes its encoding.
		if s.SignedHash() != sha256.Sum256(s.SignedBytes()) {
			t.Fatalf("n=%d: in-memory SignedHash differs from sha256(SignedBytes)", n)
		}
	}
}
