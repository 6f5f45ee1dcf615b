package lake

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// journalSeeds builds the deterministic seed corpus for FuzzDecodeJournal:
// well-formed journals exercising every record kind, plus the damage the
// torn-tail logic must classify correctly — truncations at frame and
// payload boundaries, bit flips the CRC must catch, sequence gaps, bad
// magic, and a lying length field.
func journalSeeds() [][]byte {
	mk := func(recs ...*Record) []byte {
		var out []byte
		for i, r := range recs {
			r.Seq = uint64(i + 1)
			r.Time = int64(1000 + i)
			out = append(out, encodeRecord(r)...)
		}
		return out
	}
	full := mk(
		&Record{Kind: KindIngest, Adds: []Container{{
			Path: "containers/c0000000001.ctr",
			Members: []Member{
				{Rel: "raw/d001/u0001", Day: 1, Off: 0, Size: 64, CRC: 0xDEADBEEF},
				{Rel: "raw/d001/u0002", Day: 1, Off: 64, Size: 32, CRC: 0x1234},
			},
		}}},
		&Record{Kind: KindPin, PinSeq: 1, PinToken: "pin-0"},
		&Record{Kind: KindDelete, Tombstones: []string{"raw/d001/u0002"}},
		&Record{Kind: KindCompact,
			Adds:    []Container{{Path: "containers/c0000000002.ctr", Members: []Member{{Rel: "raw/d001/u0001", Day: 1, Size: 64, CRC: 0xDEADBEEF}}}},
			Removes: []string{"containers/c0000000001.ctr"}},
		&Record{Kind: KindUnpin, PinToken: "pin-0"},
		&Record{Kind: KindGC, Horizon: 4, Removes: []string{"containers/c0000000001.ctr"}},
	)
	seeds := [][]byte{
		mk(),
		mk(&Record{Kind: KindIngest, Adds: []Container{{Path: "containers/c0000000001.ctr"}}}),
		full,
	}
	seeds = append(seeds, full[:len(full)-3])                                                              // torn inside the final CRC
	seeds = append(seeds, full[:len(full)/2])                                                              // torn mid-journal
	seeds = append(seeds, append(mk(&Record{Kind: KindDelete, Tombstones: []string{"x"}}), "LJN1\x10"...)) // torn header
	flip := append([]byte(nil), full...)
	flip[len(flip)/4] ^= 0x40 // CRC must catch this
	seeds = append(seeds, flip)
	gap := mk(&Record{Kind: KindDelete, Tombstones: []string{"a"}})
	bad := &Record{Seq: 7, Kind: KindDelete, Tombstones: []string{"b"}}
	seeds = append(seeds, append(gap, encodeRecord(bad)...)) // sequence gap
	seeds = append(seeds, []byte("LJN1"), []byte("XXXX\x00\x00\x00\x00"))
	lying := []byte("LJN1\xff\xff\xff\x7f payload never arrives")
	seeds = append(seeds, lying)
	return seeds
}

// TestGenerateJournalFuzzCorpus materializes the seeds as checked-in
// corpus files (go test fuzz v1 format). Existing files are left alone, so
// the corpus is stable once committed and self-heals if a file goes
// missing.
func TestGenerateJournalFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeJournal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range journalSeeds() {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if _, err := os.Stat(path); err == nil {
			continue
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecodeJournal feeds arbitrary bytes to the journal decoder — the
// exact content a torn append, a bit flip, or a hostile file could leave
// in journal.ljn. The invariants: never panic, never over-allocate off a
// lying length field, goodTail always lands on a frame boundary covering
// exactly the returned records, every returned record is strictly
// sequential from 1, and every accepted prefix re-encodes byte-identically
// (decode∘encode is the identity on the accepted region).
func FuzzDecodeJournal(f *testing.F) {
	for _, seed := range journalSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodTail, err := DecodeJournal(data)
		if goodTail < 0 || goodTail > int64(len(data)) {
			t.Fatalf("goodTail %d outside [0,%d]", goodTail, len(data))
		}
		var re []byte
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d carries seq %d", i, r.Seq)
			}
			re = append(re, encodeRecord(r)...)
		}
		if int64(len(re)) != goodTail {
			t.Fatalf("re-encoded records span %d bytes, goodTail %d", len(re), goodTail)
		}
		if string(re) != string(data[:goodTail]) {
			t.Fatal("decode∘encode is not the identity on the accepted region")
		}
		// The accepted region must replay cleanly and identically.
		recs2, tail2, err2 := DecodeJournal(re)
		if err2 != nil || tail2 != goodTail || len(recs2) != len(recs) {
			t.Fatalf("replay of accepted region diverged: %d recs tail %d err %v", len(recs2), tail2, err2)
		}
		_ = err
	})
}
