package minidb

import (
	"bytes"
	"testing"
)

// Fuzz targets for the WAL decode paths — the exact bytes a crash (or bit
// rot, or an adversarial disk) can hand to recovery. The invariant under
// fuzzing is never "decodes successfully"; it is "never panics, never
// over-allocates, and anything that does decode re-encodes canonically".

// fuzzSeedOps covers every op kind and every value type.
func fuzzSeedOps() []walOp {
	return []walOp{
		{kind: walInsert, txn: 1, table: "events", rowid: 7,
			row: Row{I(42), S("ha"), F(3.25), Null(), Bo(true), Bs([]byte{0, 1, 2})}},
		{kind: walUpdate, txn: 2, table: "notes", rowid: -3,
			row: Row{S(""), Value{T: TimeType, I: 1234567890}}},
		{kind: walDelete, txn: 3, table: "t", rowid: 9},
		{kind: walCommit, txn: 4},
	}
}

func FuzzDecodeWalOp(f *testing.F) {
	for _, op := range fuzzSeedOps() {
		f.Add(encodeWalOp(op))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(walInsert)})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := decodeWalOp(data)
		if err != nil {
			return
		}
		// Whatever decoded must round-trip through the canonical encoding.
		// (Byte comparison, not DeepEqual: NaN floats compare unequal to
		// themselves but encode identically.)
		enc := encodeWalOp(op)
		op2, err := decodeWalOp(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(enc, encodeWalOp(op2)) {
			t.Fatalf("encoding not canonical: % x vs % x", enc, encodeWalOp(op2))
		}
	})
}

func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{I(0), I(-1), I(1 << 60), F(2.5), F(-0.0), S("x"),
		S(""), Bo(false), Null(), Value{T: TimeType, I: 1}, Bs(nil), Bs([]byte("payload"))} {
		var b bytes.Buffer
		encodeValue(&b, v)
		f.Add(b.Bytes())
	}
	f.Add([]byte{byte(BytesType), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // huge length
	f.Add([]byte{byte(StringType), 0x80})                        // unterminated varint
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		v, err := decodeValue(r)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		encodeValue(&enc, v)
		v2, err := decodeValue(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		var enc2 bytes.Buffer
		encodeValue(&enc2, v2)
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding not canonical: % x vs % x", enc.Bytes(), enc2.Bytes())
		}
	})
}

// FuzzReadWal fuzzes the full log scan (parseWal is readWal minus the file
// read). The invariants mirror what recovery relies on: the known-good
// offset always frames whole valid records, and re-scanning exactly that
// prefix reproduces the same ops with no error — regardless of what
// garbage follows.
func FuzzReadWal(f *testing.F) {
	var clean []byte
	for _, op := range fuzzSeedOps() {
		clean = append(clean, walRecord(op)...)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                           // torn tail
	f.Add(append(append([]byte{}, clean...), 0xDE, 0xAD)) // trailing garbage
	f.Add([]byte{})
	mid := append([]byte{}, clean...)
	mid[9] ^= 0x01 // mid-log damage with valid records after
	f.Add(mid)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, good, err := parseWal(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range 0..%d", good, len(data))
		}
		ops2, good2, err2 := parseWal(data[:good])
		if err2 != nil {
			t.Fatalf("re-parse of known-good prefix errored: %v", err2)
		}
		if good2 != good || len(ops2) != len(ops) {
			t.Fatalf("known-good prefix not stable: ops %d->%d, good %d->%d (err=%v)",
				len(ops), len(ops2), good, good2, err)
		}
	})
}

// FuzzPlannerEquivalence drives the planner oracle of quick_test.go with
// fuzzed tables and queries: whichever index the probe picks and whichever
// of the early-stop, top-k, full-sort or ordered-walk paths runs, the result
// must be the brute-force filter, sort and slice, rowids included.
func FuzzPlannerEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(400), uint16(0), uint16(7), uint16(0), uint16(10), false, false)
	f.Add(int64(2), uint16(500), uint16(1), uint16(3), uint16(5), uint16(0), true, true)
	f.Add(int64(3), uint16(90), uint16(4), uint16(44), uint16(40), uint16(1), false, true)
	f.Fuzz(func(t *testing.T, seed int64, n, av, bv, off, lim uint16, swap, desc bool) {
		if err := plannerCase(seed, n, av, bv, off, lim, swap, desc); err != nil {
			t.Fatal(err)
		}
	})
}
