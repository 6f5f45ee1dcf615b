package minidb

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// collect returns all entries of the tree in order.
func collect(t *btree) []entry {
	var out []entry
	t.scanRange(nil, nil, func(e entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestBtreeInsertScanSorted(t *testing.T) {
	bt := newBtree()
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	for i := 0; i < n; i++ {
		bt.insert(entry{key: I(int64(rng.Intn(1000))), rowid: int64(i)})
	}
	if bt.size != n {
		t.Fatalf("len = %d, want %d", bt.size, n)
	}
	ents := collect(bt)
	if len(ents) != n {
		t.Fatalf("scanned %d entries, want %d", len(ents), n)
	}
	for i := 1; i < len(ents); i++ {
		if cmpEntry(ents[i-1], ents[i]) >= 0 {
			t.Fatalf("entries out of order at %d: %v >= %v", i, ents[i-1], ents[i])
		}
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBtreeDuplicateEntryIgnored(t *testing.T) {
	bt := newBtree()
	e := entry{key: S("x"), rowid: 7}
	bt.insert(e)
	bt.insert(e)
	if bt.size != 1 {
		t.Fatalf("len = %d, want 1", bt.size)
	}
}

func TestBtreeDelete(t *testing.T) {
	bt := newBtree()
	const n = 2000
	for i := 0; i < n; i++ {
		bt.insert(entry{key: I(int64(i)), rowid: int64(i)})
	}
	// Delete every third entry.
	for i := 0; i < n; i += 3 {
		if !bt.delete(entry{key: I(int64(i)), rowid: int64(i)}) {
			t.Fatalf("delete(%d) reported missing", i)
		}
	}
	if bt.delete(entry{key: I(0), rowid: 0}) {
		t.Fatal("double delete succeeded")
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	ents := collect(bt)
	want := n - (n+2)/3
	if len(ents) != want || bt.size != want {
		t.Fatalf("after deletes: scanned %d, Len %d, want %d", len(ents), bt.size, want)
	}
	for _, e := range ents {
		if e.rowid%3 == 0 {
			t.Fatalf("deleted entry %v still present", e)
		}
	}
}

func TestBtreeDeleteAll(t *testing.T) {
	bt := newBtree()
	const n = 1500
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, i := range perm {
		bt.insert(entry{key: I(int64(i)), rowid: int64(i)})
	}
	for _, i := range rand.New(rand.NewSource(3)).Perm(n) {
		if !bt.delete(entry{key: I(int64(i)), rowid: int64(i)}) {
			t.Fatalf("delete(%d) reported missing", i)
		}
		if err := bt.checkInvariants(); err != nil {
			t.Fatalf("after delete(%d): %v", i, err)
		}
	}
	if bt.size != 0 || len(collect(bt)) != 0 {
		t.Fatalf("tree not empty: len=%d", bt.size)
	}
}

func TestBtreeRangeScan(t *testing.T) {
	bt := newBtree()
	for i := 0; i < 100; i++ {
		bt.insert(entry{key: I(int64(i)), rowid: int64(i)})
	}
	lo, hi := I(10), I(20)
	var got []int64
	bt.scanRange(&lo, &hi, func(e entry) bool {
		got = append(got, e.key.Int())
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("range scan got %v", got)
	}
}

func TestBtreeScanDesc(t *testing.T) {
	bt := newBtree()
	for i := 0; i < 100; i++ {
		bt.insert(entry{key: I(int64(i)), rowid: int64(i)})
	}
	lo, hi := I(5), I(15)
	var got []int64
	bt.scanDesc(&lo, &hi, func(e entry) bool {
		got = append(got, e.key.Int())
		return true
	})
	if len(got) != 11 {
		t.Fatalf("desc scan got %v", got)
	}
	for i := range got {
		if got[i] != int64(15-i) {
			t.Fatalf("desc scan order wrong: %v", got)
		}
	}
}

func TestBtreeScanEarlyStop(t *testing.T) {
	bt := newBtree()
	for i := 0; i < 1000; i++ {
		bt.insert(entry{key: I(int64(i)), rowid: int64(i)})
	}
	count := 0
	bt.scanRange(nil, nil, func(e entry) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d entries", count)
	}
}

func TestBtreeDuplicateKeysDistinctRowids(t *testing.T) {
	bt := newBtree()
	for i := 0; i < 500; i++ {
		bt.insert(entry{key: S("same"), rowid: int64(i)})
	}
	if bt.size != 500 {
		t.Fatalf("len = %d, want 500", bt.size)
	}
	k := S("same")
	var rowids []int64
	bt.scanRange(&k, &k, func(e entry) bool {
		rowids = append(rowids, e.rowid)
		return true
	})
	if len(rowids) != 500 {
		t.Fatalf("scanned %d rowids", len(rowids))
	}
	for i, r := range rowids {
		if r != int64(i) {
			t.Fatalf("rowids not in order: %v...", rowids[:10])
		}
	}
}

// Property: after any sequence of inserts and deletes, the tree contains
// exactly the same set as a reference map, in sorted order, and invariants
// hold. Driven by testing/quick.
func TestBtreeQuickAgainstReference(t *testing.T) {
	type opSeq struct {
		Keys []int16 // small domain forces duplicates and collisions
		Dels []uint8
	}
	type refKey struct {
		k     int64
		rowid int64
	}
	check := func(s opSeq) bool {
		bt := newBtree()
		ref := make(map[refKey]bool)
		for i, k := range s.Keys {
			e := entry{key: I(int64(k)), rowid: int64(i % 16)} // rowid collisions too
			bt.insert(e)
			ref[refKey{int64(k), e.rowid}] = true
		}
		for _, d := range s.Dels {
			if len(s.Keys) == 0 {
				break
			}
			i := int(d) % len(s.Keys)
			rk := refKey{int64(s.Keys[i]), int64(i % 16)}
			got := bt.delete(entry{key: I(rk.k), rowid: rk.rowid})
			want := ref[rk]
			if got != want {
				return false
			}
			delete(ref, rk)
		}
		if bt.checkInvariants() != nil {
			return false
		}
		ents := collect(bt)
		if len(ents) != len(ref) || bt.size != len(ref) {
			return false
		}
		for i := 1; i < len(ents); i++ {
			if cmpEntry(ents[i-1], ents[i]) >= 0 {
				return false
			}
		}
		for _, e := range ents {
			if !ref[refKey{e.key.Int(), e.rowid}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: range scans return exactly the reference entries within bounds.
func TestBtreeQuickRangeScan(t *testing.T) {
	check := func(keys []int16, loRaw, hiRaw int16) bool {
		if loRaw > hiRaw {
			loRaw, hiRaw = hiRaw, loRaw
		}
		bt := newBtree()
		var ref []int64
		for i, k := range keys {
			bt.insert(entry{key: I(int64(k)), rowid: int64(i)})
			if int64(k) >= int64(loRaw) && int64(k) <= int64(hiRaw) {
				ref = append(ref, int64(k))
			}
		}
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		lo, hi := I(int64(loRaw)), I(int64(hiRaw))
		var got []int64
		bt.scanRange(&lo, &hi, func(e entry) bool {
			got = append(got, e.key.Int())
			return true
		})
		if len(got) != len(ref) {
			return false
		}
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
