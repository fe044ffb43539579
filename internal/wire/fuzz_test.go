package wire

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzDecodeBatch feeds attacker-controlled bytes to the batch decoder.
// DecodeBatch runs on raw network input (the gaas submit-batch body), so
// it must never panic and never allocate beyond what the input length
// justifies — every length prefix is bounds-checked before allocation
// (MaxFieldLen per field, MaxBatchItems per frame, remaining-bytes checks
// in the reader). On success the encoding must be canonical: re-encoding
// the decoded items reproduces the input byte for byte.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch([][]byte{{}}))
	f.Add(EncodeBatch([][]byte{{1, 2, 3}, {}, {0xff, 0x00}}))
	f.Add(EncodeBatch([][]byte{bytes.Repeat([]byte{0xAB}, 300)}))
	// Hostile shapes: oversized item count, a 4-byte frame claiming 65535
	// items (allocation amplification), truncated field, trailing junk.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0x00, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add(append(EncodeBatch([][]byte{{1}}), 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if len(items) > MaxBatchItems {
			t.Fatalf("decoded %d items past MaxBatchItems", len(items))
		}
		if re := EncodeBatch(items); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzDecodeTicket feeds attacker-controlled bytes to both ticket codecs —
// the control-plane parsers a service runs on unauthenticated input before
// any signature or MAC has been checked. Neither may panic or allocate
// beyond what the input justifies, and on success each encoding must be
// canonical (re-encode reproduces the input byte for byte). The seeds cover
// the interesting refusal shapes: a truncated ticket, a grant naming the
// wrong tenant, an already-expired grant, and a bit-flipped request whose
// decode still succeeds (the flip lands in the signature, which only the
// verifier refuses).
func FuzzDecodeTicket(f *testing.F) {
	req := goldenTicketRequest()
	grant := goldenTicketGrant()
	f.Add(EncodeTicketRequest(req))
	f.Add(EncodeTicketGrant(grant))
	// Truncated ticket.
	f.Add(EncodeTicketGrant(grant)[:10])
	// Wrong tenant: structurally valid, refused only by the name check.
	wrong := grant
	wrong.Service = "ghost.invalid"
	f.Add(EncodeTicketGrant(wrong))
	// Expired: structurally valid, refused only by the expiry check.
	expired := grant
	expired.ExpiresUnix = 1
	f.Add(EncodeTicketGrant(expired))
	// Bit-flipped MAC/signature byte on the request.
	flipped := EncodeTicketRequest(req)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeTicketRequest(data); err == nil {
			if re := EncodeTicketRequest(r); !bytes.Equal(re, data) {
				t.Fatalf("request decode/encode not canonical:\n in: %x\nout: %x", data, re)
			}
			if len(r.SignedBytes()) == 0 {
				t.Fatal("empty signing preimage for a decodable request")
			}
		}
		if g, err := DecodeTicketGrant(data); err == nil {
			if re := EncodeTicketGrant(g); !bytes.Equal(re, data) {
				t.Fatalf("grant decode/encode not canonical:\n in: %x\nout: %x", data, re)
			}
		}
	})
}

// FuzzReader drives the raw field readers over arbitrary bytes in a fixed
// sequence, checking the sticky-error contract: no panics, and after any
// failure every subsequent read yields a zero value.
func FuzzReader(f *testing.F) {
	f.Add(NewWriter().String("s").Bytes([]byte{1}).Uint64(2).Uint32(3).Byte(4).Bool(true).Uint64s([]uint64{5, 6}).Finish())
	f.Add([]byte{0, 0, 0, 9, 'x'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.String()
		r.SkipBytes()
		r.Uint64()
		r.Uint64s()
		r.Uint32()
		r.Byte()
		r.Bool()
		b := r.Bytes()
		if r.Err() != nil && b != nil {
			t.Fatalf("read after sticky error returned %x", b)
		}
		_ = r.Done()
		if r.Remaining() < 0 {
			t.Fatalf("negative remaining")
		}
	})
}

// FuzzDecodePartialSeal feeds attacker-controlled bytes to the merge-plane
// decoders. A coordinator parses partial seals from the network before any
// signature check, so the decoder must never panic, must bound every
// allocation by the input length, and must enforce the canonical digest
// form (count agreement, strict ascending order) structurally. On success
// the encoding must be canonical: re-encoding reproduces the input byte
// for byte. The merge-result decoder rides along — nodes parse it out of
// the coordinator's reply frame.
func FuzzDecodePartialSeal(f *testing.F) {
	seal := goldenPartialSeal()
	f.Add(EncodePartialSeal(seal))
	// Empty partial: legal shape with zero digests.
	f.Add(EncodePartialSeal(PartialSeal{
		Service:     "iot.example",
		ShardCount:  2,
		Measurement: make([]byte, MeasurementLen),
		Sum:         make([]uint64, 4),
	}))
	// Hostile shapes: truncated seal, trailing junk, count/digest
	// disagreement, descending digests, short measurement, huge length
	// prefix (allocation amplification), and a bit-flipped signature byte
	// whose decode still succeeds (only the verifier refuses it).
	f.Add(EncodePartialSeal(seal)[:20])
	f.Add(append(EncodePartialSeal(seal), 0x00))
	lying := seal
	lying.Count = 99
	f.Add(EncodePartialSeal(lying))
	descending := seal
	descending.Digests = append(
		bytes.Repeat([]byte{0x0B}, SealDigestLen),
		bytes.Repeat([]byte{0x0A}, SealDigestLen)...)
	f.Add(EncodePartialSeal(descending))
	shortMeas := seal
	shortMeas.Measurement = shortMeas.Measurement[:4]
	f.Add(EncodePartialSeal(shortMeas))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	flipped := EncodePartialSeal(seal)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(flipped)
	f.Add(EncodeMergeResult(goldenMergeResult()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := DecodePartialSeal(data); err == nil {
			if re := EncodePartialSeal(s); !bytes.Equal(re, data) {
				t.Fatalf("seal decode/encode not canonical:\n in: %x\nout: %x", data, re)
			}
			if uint64(s.DigestCount()) != s.Count {
				t.Fatalf("decoder passed count %d with %d digests", s.Count, s.DigestCount())
			}
			for i := 1; i < s.DigestCount(); i++ {
				prev, cur := s.DigestAt(i-1), s.DigestAt(i)
				if bytes.Compare(prev[:], cur[:]) >= 0 {
					t.Fatalf("decoder passed non-canonical digest order at %d", i)
				}
			}
			if len(s.SignedBytes()) == 0 {
				t.Fatal("empty signing preimage for a decodable seal")
			}
			// The merge verifies over the received field block; the
			// canonical codec makes that the re-encoded preimage.
			if s.SignedHash() != sha256.Sum256(s.SignedBytes()) {
				t.Fatalf("SignedHash differs from sha256(SignedBytes) for %x", data)
			}
		}
		if m, err := DecodeMergeResult(data); err == nil {
			if re := EncodeMergeResult(m); !bytes.Equal(re, data) {
				t.Fatalf("merge result decode/encode not canonical:\n in: %x\nout: %x", data, re)
			}
		}
	})
}
