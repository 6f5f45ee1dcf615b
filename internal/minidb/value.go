// Package minidb is an embedded relational database engine: typed schemas,
// heap tables, B-tree secondary indexes, a structured (non-SQL) query layer
// with a planner, single-writer transactions with a redo log, snapshot
// checkpoints and crash recovery, and named connection pools.
//
// It stands in for the Oracle 8.1.7 installation that HEDC used to manage
// meta data (SIGMOD 2003, §2.3). The query API deliberately takes structured
// query objects rather than SQL text, mirroring the paper's DM design:
// "The DM API has no provisions for regular SQL calls. It uses Java
// collection objects instead" (§5.4).
package minidb

import (
	"fmt"
	"strings"
	"time"
)

// Type enumerates the column types supported by the engine.
type Type uint8

// Column type tags. NullType is the type of the SQL-ish NULL value.
const (
	NullType Type = iota
	IntType
	FloatType
	StringType
	BytesType
	BoolType
	TimeType
)

// String returns the lower-case type name.
func (t Type) String() string {
	switch t {
	case NullType:
		return "null"
	case IntType:
		return "int"
	case FloatType:
		return "float"
	case StringType:
		return "string"
	case BytesType:
		return "bytes"
	case BoolType:
		return "bool"
	case TimeType:
		return "time"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Value is a dynamically typed cell. The zero Value is NULL.
// Fields are exported so values survive gob encoding in snapshots.
type Value struct {
	T Type
	I int64 // IntType, BoolType (0/1), TimeType (UnixNano)
	F float64
	S string
	B []byte
}

// Constructors for each value type.

// Null returns the NULL value.
func Null() Value { return Value{} }

// I wraps an int64.
func I(v int64) Value { return Value{T: IntType, I: v} }

// F wraps a float64.
func F(v float64) Value { return Value{T: FloatType, F: v} }

// S wraps a string.
func S(v string) Value { return Value{T: StringType, S: v} }

// Bs wraps a byte slice (not copied).
func Bs(v []byte) Value { return Value{T: BytesType, B: v} }

// Bo wraps a bool.
func Bo(v bool) Value {
	if v {
		return Value{T: BoolType, I: 1}
	}
	return Value{T: BoolType}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == NullType }

// Int returns the int64 payload (0 for non-int values).
func (v Value) Int() int64 {
	if v.T == IntType {
		return v.I
	}
	return 0
}

// Float returns the float payload, widening ints.
func (v Value) Float() float64 {
	switch v.T {
	case FloatType:
		return v.F
	case IntType:
		return float64(v.I)
	}
	return 0
}

// Str returns the string payload ("" for non-strings).
func (v Value) Str() string {
	if v.T == StringType {
		return v.S
	}
	return ""
}

// Bool returns the bool payload (false for non-bools).
func (v Value) Bool() bool { return v.T == BoolType && v.I != 0 }

// Time returns the time payload (zero time for non-times).
func (v Value) Time() time.Time {
	if v.T == TimeType {
		return time.Unix(0, v.I).UTC()
	}
	return time.Time{}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.T {
	case NullType:
		return "NULL"
	case IntType:
		return fmt.Sprintf("%d", v.I)
	case FloatType:
		return fmt.Sprintf("%g", v.F)
	case StringType:
		return fmt.Sprintf("%q", v.S)
	case BytesType:
		return fmt.Sprintf("bytes[%d]", len(v.B))
	case BoolType:
		return fmt.Sprintf("%t", v.I != 0)
	case TimeType:
		return v.Time().Format(time.RFC3339Nano)
	}
	return "?"
}

// Compare orders two values. Values of different types order by type tag
// (NULL first); numeric int/float pairs compare numerically. Byte slices
// compare lexicographically. The total order is what B-tree indexes use.
func Compare(a, b Value) int {
	// Numeric cross-type comparison.
	if (a.T == IntType || a.T == FloatType) && (b.T == IntType || b.T == FloatType) {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		return 1
	}
	switch a.T {
	case NullType:
		return 0
	case IntType, BoolType, TimeType:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case FloatType:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case StringType:
		return strings.Compare(a.S, b.S)
	case BytesType:
		return compareBytes(a.B, b.B)
	}
	return 0
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Equal reports whether a and b compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Row is one tuple: a slice of values positionally matching a table schema.
type Row []Value

// Clone returns a deep copy of the row (byte payloads included).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	for i, v := range out {
		if v.T == BytesType && v.B != nil {
			b := make([]byte, len(v.B))
			copy(b, v.B)
			out[i].B = b
		}
	}
	return out
}
