package shard

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/minidb"
)

func TestMapRoundTrip(t *testing.T) {
	maps := []*Map{
		NewMap([]int{0}),
		NewMap([]int{0, 1}),
		NewMap([]int{0, 1, 2, 5, 9}),
	}
	bumped := NewMap([]int{0, 1, 2})
	bumped.Version = 7
	maps = append(maps, bumped)

	for i, m := range maps {
		if err := m.Validate(); err != nil {
			t.Fatalf("map %d invalid: %v", i, err)
		}
		got, err := DecodeMap(EncodeMap(m))
		if err != nil {
			t.Fatalf("map %d decode: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("map %d round trip mismatch:\n%+v\n%+v", i, m, got)
		}
	}
}

func TestMapDecodeRejects(t *testing.T) {
	m := NewMap([]int{0, 1})
	good := EncodeMap(m)

	if _, err := DecodeMap(nil); err == nil {
		t.Fatal("decoded empty input")
	}
	if _, err := DecodeMap(good[:4]); err == nil {
		t.Fatal("decoded truncated magic")
	}
	if _, err := DecodeMap(good[:len(good)-5]); err == nil {
		t.Fatal("decoded truncated body")
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if got, err := DecodeMap(bad); err == nil && reflect.DeepEqual(got, m) {
			// A flip that still decodes must not silently yield the
			// original map with a passing checksum (CRC collision would).
			t.Fatalf("bit flip at %d decoded to the original map", i)
		}
	}
	if _, err := DecodeMap(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("decoded trailing garbage")
	}

	// A structurally invalid map must be rejected even with a valid CRC.
	bad := NewMap([]int{0, 1})
	bad.Slots[3] = 7 // unknown shard
	if _, err := DecodeMap(EncodeMap(bad)); err == nil {
		t.Fatal("decoded map with unknown slot owner")
	}

	// A map written by a build that still had the online split: a stable
	// map (move flag 0) loads unchanged.
	golden := []byte("SMAP1\x04\x03\x00\x01\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x00\xaaK\x04\x9c")
	want := NewMap([]int{0, 1, 2})
	want.Version = 4
	if got, err := DecodeMap(golden); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("stable map from an earlier build: got %+v, %v", got, err)
	}
	if !bytes.Equal(EncodeMap(want), golden) {
		t.Fatal("encoding of a stable map changed")
	}

	// One written mid-split (move flag 1: the dual-write map of corpus
	// file testdata/fuzz/FuzzDecodeShardMap/seed-03) is refused, naming
	// the split, never loaded without its move.
	midSplit := []byte("SMAP1\t\x03\x00\x01\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x03\x01\x03234\fn\x94~")
	_, err := DecodeMap(midSplit)
	if err == nil || !strings.Contains(err.Error(), "unfinished split of shard 1 onto 3") {
		t.Fatalf("map with an in-flight split: err %v", err)
	}
}

// TestMapCrashAtomicity enumerates every fault site of a map update:
// reopening after a crash anywhere during SaveMap must load either the
// old or the new map, never a torn or corrupt one.
func TestMapCrashAtomicity(t *testing.T) {
	old := NewMap([]int{0, 1})
	next := NewMap([]int{0, 1})
	next.Version++

	// Count the ops of one save to bound the enumeration.
	probe := fault.NewFS()
	if err := SaveMap(probe, "cell", old); err != nil {
		t.Fatal(err)
	}
	base := probe.OpCount()
	if err := SaveMap(probe, "cell", next); err != nil {
		t.Fatal(err)
	}
	saveOps := probe.OpCount() - base
	if saveOps < 3 {
		t.Fatalf("suspicious save op count %d", saveOps)
	}

	for _, mode := range []fault.Mode{fault.ModeCrash, fault.ModeTorn, fault.ModeBitFlip, fault.ModePartialFsync} {
		for n := 1; n <= saveOps; n++ {
			fs := fault.NewFS()
			if err := SaveMap(fs, "cell", old); err != nil {
				t.Fatal(err)
			}
			fs.SetFault(fs.OpCount()+n, mode)
			err := SaveMap(fs, "cell", next)
			fs.Recover()
			got, lerr := LoadMap(fs, "cell")
			if lerr != nil {
				t.Fatalf("mode %v site %d: reopen after crash: %v (save err %v)", mode, n, lerr, err)
			}
			if got == nil {
				t.Fatalf("mode %v site %d: map vanished", mode, n)
			}
			switch {
			case reflect.DeepEqual(got, old), reflect.DeepEqual(got, next):
			default:
				t.Fatalf("mode %v site %d: loaded a third map: %+v", mode, n, got)
			}
			if err == nil && !reflect.DeepEqual(got, next) {
				t.Fatalf("mode %v site %d: save acked but old map served", mode, n)
			}
		}
	}
}

func TestSlotOfStable(t *testing.T) {
	// Equal values hash to equal slots regardless of construction; the
	// distribution over 64 slots is not pathological for realistic IDs.
	seen := make(map[int]int)
	for i := 0; i < 1000; i++ {
		id := "hle-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		seen[SlotOf(minidb.S(id))]++
	}
	if len(seen) < NumSlots/2 {
		t.Fatalf("IDs cover only %d/%d slots", len(seen), NumSlots)
	}
}
