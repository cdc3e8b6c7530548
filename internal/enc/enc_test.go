package enc

import (
	"bytes"
	"math"
	"testing"
)

// TestRoundTrip: every appender's bytes read back to the same value
// through Reader, floats bit for bit.
func TestRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var b []byte
	b = U32(b, 0xdeadbeef)
	b = U64(b, 1<<63|5)
	b = F64(b, negZero)
	b = F64(b, math.Inf(-1))
	b = Bool(b, true)
	b = Bool(b, false)
	b = Field(b, "name")
	b = Field(b, []byte{})
	b = append(b, 7)

	r := NewReader(b)
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 %#x", got)
	}
	if got := r.U64(); got != 1<<63|5 {
		t.Fatalf("U64 %#x", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(negZero) {
		t.Fatalf("F64 %v lost the sign of zero", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := string(r.Field()); got != "name" {
		t.Fatalf("Field %q", got)
	}
	if got := r.Field(); len(got) != 0 {
		t.Fatalf("empty Field %q", got)
	}
	if got := r.Byte(); got != 7 || r.Len() != 0 || r.Err() != nil {
		t.Fatalf("Byte %d, %d left, err %v", got, r.Len(), r.Err())
	}
}

// TestFixedLayout pins the byte layout hashes and codecs depend on:
// little-endian integers, u32- and u64-prefixed strings.
func TestFixedLayout(t *testing.T) {
	got := Str64(Field(U32(nil, 1), "ab"), "c")
	want := []byte{1, 0, 0, 0, 2, 0, 0, 0, 'a', 'b', 1, 0, 0, 0, 0, 0, 0, 0, 'c'}
	if !bytes.Equal(got, want) {
		t.Fatalf("layout % x, want % x", got, want)
	}
}

// TestReaderErrorsStick: a short read, an oversized field or a bool byte
// other than 0 or 1 sets the error, and every later read returns zero
// values without consuming input.
func TestReaderErrorsStick(t *testing.T) {
	for name, c := range map[string]struct {
		data []byte
		read func(*Reader)
	}{
		"short":      {[]byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		"long field": {U32(nil, 9), func(r *Reader) { r.Field() }},
		"bool 2":     {[]byte{2, 1}, func(r *Reader) { r.Bool() }},
	} {
		r := NewReader(c.data)
		c.read(r)
		if r.Err() == nil {
			t.Fatalf("%s: no error", name)
		}
		left := r.Len()
		if r.Byte() != 0 || r.Bool() || r.U64() != 0 || r.Field() != nil || r.Len() != left {
			t.Fatalf("%s: a read after the error returned data or consumed input", name)
		}
	}
}
