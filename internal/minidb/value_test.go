package minidb

import (
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Nanosecond)
	cases := []struct {
		v    Value
		typ  Type
		want interface{}
	}{
		{I(42), IntType, int64(42)},
		{F(2.5), FloatType, 2.5},
		{S("hi"), StringType, "hi"},
		{Bo(true), BoolType, true},
		{tm(now), TimeType, now},
		{Null(), NullType, nil},
	}
	for _, c := range cases {
		if c.v.T != c.typ {
			t.Fatalf("type of %v = %v, want %v", c.v, c.v.T, c.typ)
		}
	}
	if I(42).Int() != 42 || F(2.5).Float() != 2.5 || S("hi").Str() != "hi" || !Bo(true).Bool() {
		t.Fatal("accessor mismatch")
	}
	if !tm(now).Time().Equal(now) {
		t.Fatalf("time round trip: %v != %v", tm(now).Time(), now)
	}
	if !Null().IsNull() || I(0).IsNull() {
		t.Fatal("IsNull wrong")
	}
	if got := Bs([]byte{1, 2}).B; len(got) != 2 {
		t.Fatal("bytes accessor wrong")
	}
}

func TestValueAccessorsOnWrongType(t *testing.T) {
	if S("x").Int() != 0 || I(1).Str() != "" || S("x").Bool() || I(1).B != nil {
		t.Fatal("wrong-type accessors must return zero values")
	}
	if !S("x").Time().IsZero() {
		t.Fatal("wrong-type Time must be zero")
	}
}

func TestCompareWithinTypes(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I(1), I(2), -1},
		{I(2), I(2), 0},
		{I(3), I(2), 1},
		{F(1.5), F(2.5), -1},
		{S("a"), S("b"), -1},
		{S("b"), S("b"), 0},
		{Bs([]byte{1}), Bs([]byte{1, 0}), -1},
		{Bs([]byte{2}), Bs([]byte{1, 9}), 1},
		{Bo(false), Bo(true), -1},
		{tm(time.Unix(1, 0)), tm(time.Unix(2, 0)), -1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareNumericCrossType(t *testing.T) {
	if Compare(I(2), F(2.0)) != 0 {
		t.Fatal("int 2 should equal float 2.0")
	}
	if Compare(I(2), F(2.5)) != -1 || Compare(F(2.5), I(2)) != 1 {
		t.Fatal("numeric cross-type order wrong")
	}
}

func TestCompareNullSortsFirst(t *testing.T) {
	for _, v := range []Value{I(-1 << 62), S(""), Bs(nil), Bo(false)} {
		if Compare(Null(), v) != -1 {
			t.Fatalf("NULL should sort before %v", v)
		}
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	// Antisymmetry and transitivity over a pool of mixed values.
	pool := []Value{
		Null(), I(-3), I(0), I(7), F(-1.5), F(0), F(7.5),
		S(""), S("a"), S("zz"), Bs(nil), Bs([]byte{0}), Bs([]byte{1, 2}),
		Bo(false), Bo(true), tm(time.Unix(0, 5)), tm(time.Unix(9, 0)),
	}
	for _, a := range pool {
		for _, b := range pool {
			if Compare(a, b) != -Compare(b, a) {
				t.Fatalf("antisymmetry broken for %v, %v", a, b)
			}
			for _, c := range pool {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity broken for %v <= %v <= %v", a, b, c)
				}
			}
		}
	}
}

func TestCompareQuickInts(t *testing.T) {
	check := func(a, b int64) bool {
		got := Compare(I(a), I(b))
		switch {
		case a < b:
			return got == -1
		case a > b:
			return got == 1
		}
		return got == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{I(1), Bs([]byte{1, 2, 3}), S("x")}
	c := r.Clone()
	c[0] = I(99)
	c[1].B[0] = 77
	if r[0].Int() != 1 {
		t.Fatal("clone shares scalar cells")
	}
	if r[1].B[0] != 1 {
		t.Fatal("clone shares byte payloads")
	}
}

func TestValueString(t *testing.T) {
	if I(3).String() != "3" || S("a").String() != `"a"` || Null().String() != "NULL" {
		t.Fatal("String renderings wrong")
	}
	if Bo(true).String() != "true" || F(1.5).String() != "1.5" {
		t.Fatal("String renderings wrong")
	}
}

func TestTypeString(t *testing.T) {
	names := map[Type]string{
		NullType: "null", IntType: "int", FloatType: "float",
		StringType: "string", BytesType: "bytes", BoolType: "bool", TimeType: "time",
	}
	for ty, want := range names {
		if ty.String() != want {
			t.Fatalf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
}

// tm wraps a time instant as a TimeType value.
func tm(v time.Time) Value { return Value{T: TimeType, I: v.UnixNano()} }
