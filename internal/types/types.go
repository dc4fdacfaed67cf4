// Package types holds the primitive vocabulary shared by every L-Store
// subsystem: record identifiers (RIDs), slot encodings, logical timestamps,
// transaction identifiers, schema descriptions and typed values.
//
// All storage slots are uint64. The special value NullSlot is the implicit
// null (the paper's ∅) that tail pages pre-assign to columns that were not
// updated. Strings are dictionary-encoded into slots by the schema layer.
package types

import (
	"fmt"
	"math"
)

// RID is a record identifier. Base records and tail records draw RIDs from
// the same key space (the paper's "common holistic form") but from disjoint,
// individually monotone sub-ranges so that a RID alone reveals whether it
// names a base or a tail record and so that tail RIDs can be compared
// against a page's TPS watermark.
type RID uint64

const (
	// InvalidRID is the zero RID; it never names a record. An Indirection
	// slot holding InvalidRID is the paper's ⊥ (record never updated).
	InvalidRID RID = 0

	// TailRIDBase is the first tail RID. Base RIDs live in [1, TailRIDBase);
	// tail RIDs live above it, in one fixed span per update range
	// (rid.TailSpan), ascending in allocation order within the span. The
	// paper allocates tail RIDs descending from 2^64; ascending allocation
	// keeps each range's RIDs monotone, which is all the per-range TPS
	// needs, while keeping comparisons natural.
	TailRIDBase RID = 1 << 40
)

// IsTail reports whether r names a tail record.
func (r RID) IsTail() bool { return r >= TailRIDBase }

// IsBase reports whether r names a base record.
func (r RID) IsBase() bool { return r != InvalidRID && r < TailRIDBase }

func (r RID) String() string {
	switch {
	case r == InvalidRID:
		return "rid(⊥)"
	case r.IsTail():
		return fmt.Sprintf("t%d", uint64(r-TailRIDBase))
	default:
		return fmt.Sprintf("b%d", uint64(r))
	}
}

// NullSlot is the slot representation of the implicit null value ∅.
const NullSlot uint64 = math.MaxUint64

// Timestamp is a logical commit timestamp drawn from the transaction
// manager's synchronized clock. The zero Timestamp precedes every commit.
type Timestamp = uint64

// TxnID identifies a transaction. Start Time slots may transiently hold a
// transaction ID instead of a commit timestamp (bit 63 set); readers resolve
// it through the transaction manager and lazily swap in the commit time.
type TxnID = uint64

// TxnIDFlag marks a Start Time slot as holding a TxnID rather than a commit
// timestamp.
const TxnIDFlag uint64 = 1 << 63

// IsTxnID reports whether a Start Time slot value holds a transaction ID.
func IsTxnID(slot uint64) bool { return slot != NullSlot && slot&TxnIDFlag != 0 }

// Indirection word layout: bit 63 is the write latch the OCC protocol uses
// for write-write conflict detection; the low 63 bits hold the RID of the
// newest tail version (or InvalidRID for never-updated records).
const (
	IndirectionLatchBit uint64 = 1 << 63
	IndirectionRIDMask  uint64 = IndirectionLatchBit - 1
)

// Schema-encoding word layout: bit i (i < MaxDataColumns) is set when data
// column i carries an explicit value in a tail record (or, on base records,
// when column i was ever updated). Two flag bits mirror the paper's
// annotations: SchemaSnapshotFlag is the asterisk marking pre-image records
// (records that hold the old values captured on first update) and
// SchemaDeleteFlag marks delete tombstones.
const (
	SchemaSnapshotFlag uint64 = 1 << 62
	SchemaDeleteFlag   uint64 = 1 << 61

	// MaxDataColumns bounds the number of data columns a table may declare so
	// that the schema-encoding bitmap and flag bits never collide.
	MaxDataColumns = 56
)

// ColType enumerates supported column types.
type ColType uint8

const (
	// Int64 columns store signed 64-bit integers (zigzag-mapped to slots so
	// that NullSlot never collides with a live value).
	Int64 ColType = iota
	// String columns store dictionary-encoded strings.
	String
)

func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("coltype(%d)", uint8(t))
	}
}

// ColumnDef describes one data column.
type ColumnDef struct {
	Name string
	Type ColType
}

// Schema describes a table: its data columns and which of them is the
// primary key. Meta-columns (Indirection, Schema Encoding, Start Time,
// Last Updated Time, Base RID) are implicit and managed by the engine.
type Schema struct {
	Cols []ColumnDef
	// Key is the index of the primary-key column inside Cols. The key column
	// must be Int64 and unique.
	Key int
}

// Validate checks structural soundness of the schema.
func (s Schema) Validate() error {
	if len(s.Cols) == 0 {
		return fmt.Errorf("types: schema has no columns")
	}
	if len(s.Cols) > MaxDataColumns {
		return fmt.Errorf("types: schema has %d columns; max is %d", len(s.Cols), MaxDataColumns)
	}
	if s.Key < 0 || s.Key >= len(s.Cols) {
		return fmt.Errorf("types: key index %d out of range [0,%d)", s.Key, len(s.Cols))
	}
	if s.Cols[s.Key].Type != Int64 {
		return fmt.Errorf("types: key column %q must be int64", s.Cols[s.Key].Name)
	}
	seen := make(map[string]struct{}, len(s.Cols))
	for i, c := range s.Cols {
		if c.Name == "" {
			return fmt.Errorf("types: column %d has empty name", i)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("types: duplicate column name %q", c.Name)
		}
		seen[c.Name] = struct{}{}
	}
	return nil
}

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// NumCols returns the number of data columns.
func (s Schema) NumCols() int { return len(s.Cols) }

// EncodeInt64 maps a signed integer into a slot, biased so that NullSlot is
// never produced by a live value.
func EncodeInt64(v int64) uint64 {
	u := uint64(v) + (1 << 63) // order-preserving bias
	if u == NullSlot {
		// math.MaxInt64 would collide with NullSlot; saturate one below. The
		// schema layer rejects math.MaxInt64 at the API boundary, so this is
		// defense in depth only.
		u--
	}
	return u
}

// DecodeInt64 inverts EncodeInt64.
func DecodeInt64(slot uint64) int64 { return int64(slot - (1 << 63)) }

// Value is a typed cell value crossing the public API boundary.
type Value struct {
	kind ColType
	null bool
	i64  int64
	str  string
}

// NullValue returns the typed null.
func NullValue() Value { return Value{null: true} }

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{kind: Int64, i64: v} }

// StringValue wraps a string.
func StringValue(s string) Value { return Value{kind: String, str: s} }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.null }

// Kind returns the value's column type (meaningless for nulls).
func (v Value) Kind() ColType { return v.kind }

// Int returns the int64 payload (0 for nulls or strings).
func (v Value) Int() int64 {
	if v.null || v.kind != Int64 {
		return 0
	}
	return v.i64
}

// Str returns the string payload ("" for nulls or ints).
func (v Value) Str() string {
	if v.null || v.kind != String {
		return ""
	}
	return v.str
}

func (v Value) String() string {
	if v.null {
		return "∅"
	}
	switch v.kind {
	case Int64:
		return fmt.Sprintf("%d", v.i64)
	case String:
		return fmt.Sprintf("%q", v.str)
	}
	return "?"
}

// Equal compares two values for equality (nulls equal only nulls).
func (v Value) Equal(o Value) bool {
	if v.null || o.null {
		return v.null == o.null
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case Int64:
		return v.i64 == o.i64
	case String:
		return v.str == o.str
	}
	return false
}
