package mine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/pattern"
)

// spr1WithGraphBlob wraps gblob as the graph of the single pattern of an
// otherwise well-formed SPR1 result.
func spr1WithGraphBlob(gblob []byte) []byte {
	b := append([]byte(nil), resultMagic[:]...)
	field := func(p []byte) {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	field([]byte("spidermine"))
	field(nil)
	field([]byte("{}"))
	b = binary.AppendUvarint(b, 1) // one pattern
	field(gblob)
	b = binary.AppendVarint(b, 0)  // id
	b = binary.AppendVarint(b, -1) // origin
	b = append(b, 0)               // not merged
	return binary.AppendUvarint(b, 0)
}

// hugeGraphBlob is the 14-byte SPG1 blob claiming n = m = 2³¹.
func hugeGraphBlob() []byte {
	b := []byte("SPG1")
	b = binary.AppendUvarint(b, 1<<31)
	return binary.AppendUvarint(b, 1<<31)
}

// TestDecodeResultRejectsHugeGraphBlob: a pattern graph whose counts its
// bytes cannot hold fails the decode with ErrBadResultCodec instead of
// reserving space for them.
func TestDecodeResultRejectsHugeGraphBlob(t *testing.T) {
	if _, err := DecodeResult(spr1WithGraphBlob(hugeGraphBlob())); !errors.Is(err, ErrBadResultCodec) {
		t.Fatalf("want ErrBadResultCodec, got %v", err)
	}
}

// FuzzDecodeResult is the hostile-bytes gate for the SPR1 codec: for
// arbitrary input DecodeResult returns an error or a result, never
// panics, and a decoded result re-encodes to bytes that decode to the
// same result.
func FuzzDecodeResult(f *testing.F) {
	g := codecHost()
	small := &Result{
		Miner:     "spidermine",
		Truncated: TruncatedMaxPatterns,
		Stats:     Stats{Spiders: 3, Merges: 1, Stages: []StageTime{{Name: "growth", Duration: 5}}},
		Patterns: []*Pattern{
			pattern.New(g, []Embedding{make(Embedding, g.N())}),
		},
	}
	valid, err := EncodeResult(small)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := EncodeResult(&Result{Miner: "grew"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(empty)
	f.Add(valid[:len(valid)-2])
	f.Add(spr1WithGraphBlob(hugeGraphBlob()))
	f.Add(spr1WithGraphBlob(g.AppendBinary(nil)))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			if !errors.Is(err, ErrBadResultCodec) {
				t.Fatalf("error %v does not wrap ErrBadResultCodec", err)
			}
			return
		}
		enc, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		res2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoding of a decoded result rejected: %v", err)
		}
		enc2, err := EncodeResult(res2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc2, enc) {
			t.Fatalf("decode∘encode changed the result (%d vs %d bytes)", len(enc2), len(enc))
		}
	})
}
