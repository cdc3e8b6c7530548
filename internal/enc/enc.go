// Package enc is the one byte encoding behind every canonical hash and
// binary codec in the system: fixed-width little-endian integers, floats
// as their IEEE-754 bit patterns, bools as one 0/1 byte and
// length-prefixed strings, each appended to a caller's buffer, and
// Reader, the one cursor that reads them back.
//
// Codecs (rctree's rct1 trees, core's bsr1 results, cache's snapshot
// envelope) prefix a length with a u32 (Field); canonical hashes
// (core.Problem.CanonicalHash, rctree.SubtreeHash, the subtree memo's key
// suffix) with a u64 (Str64). Each format fixes its own field order;
// this package fixes only how one field becomes bytes.
package enc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// U32 appends v, little-endian.
func U32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// U64 appends v, little-endian.
func U64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// F64 appends v's IEEE-754 bit pattern, so -0, NaN payloads and
// subnormals survive bit for bit.
func F64(b []byte, v float64) []byte { return U64(b, math.Float64bits(v)) }

// Bool appends v as one byte, 1 or 0.
func Bool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Field appends s behind its u32 length: a codec's string or byte field,
// read back by Reader.Field.
func Field[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(U32(b, uint32(len(s))), s...)
}

// Str64 appends s behind its u64 length: a string inside a canonical
// hash.
func Str64(b []byte, s string) []byte {
	return append(U64(b, uint64(len(s))), s...)
}

// Reader is a cursor over encoded bytes with a sticky error: the first
// short read or malformed value poisons every later read, which then
// returns zero values, so a decoder reads its fields unconditionally and
// checks Err once per record.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error the reader met, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns how many bytes remain unread.
func (r *Reader) Len() int { return len(r.buf) }

// Bytes consumes the next n bytes and returns them, sharing the input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = fmt.Errorf("truncated input (want %d bytes, have %d)", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool consumes one byte written by Bool: any value other than 0 or 1 is
// an error, not a silent false.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	if r.err == nil {
		r.err = fmt.Errorf("invalid boolean byte")
	}
	return false
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 consumes a float written by F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Field consumes a field written by Field and returns its bytes, sharing
// the input.
func (r *Reader) Field() []byte {
	n := int(r.U32())
	if r.err == nil && n > len(r.buf) {
		r.err = fmt.Errorf("field length %d exceeds remaining %d bytes", n, len(r.buf))
		return nil
	}
	return r.Bytes(n)
}
