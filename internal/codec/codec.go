// Package codec is the binary encoding restart state is written in: the
// fleet controller's checkpoint and the engine, backend and planning
// service states inside it. Each state owner appends its own fields in a
// fixed order with the Append helpers and reads them back, in the same
// order, through a Reader.
//
// Integers are varints (encoding/binary: Uint unsigned, Int zig-zag).
// Floats are their 8 IEEE 754 bytes, little-endian, so every bit pattern
// round-trips, NaN and the infinities included. Bools are one byte, 0 or
// 1. Strings and lists are prefixed with their length.
//
// A Reader accepts only what the helpers write: an overlong varint, a bool
// byte other than 0 or 1, or a length longer than the bytes left is an
// error. So a blob that decodes re-encodes to the same bytes, provided the
// owner's decoder checks the ranges and orders its encoder implies.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendUint appends v as an unsigned varint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int64) []byte { return AppendUint(b, uint64(v<<1)^uint64(v>>63)) }

// AppendFloat appends f's IEEE 754 bits, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s's length and bytes.
func AppendString(b []byte, s string) []byte {
	return append(AppendUint(b, uint64(len(s))), s...)
}

var errTruncated = errors.New("codec: truncated")

// Reader reads fields back in the order they were appended. The first
// malformed field sets an error that every later read keeps, returning
// zero values, so a decoder reads on and checks Err (or Done) once.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads from b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error a read met, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first error a read met, or an error if bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("codec: %d trailing bytes", len(r.buf))
	}
	return r.err
}

// Failf sets the reader's error, unless one is set: a decoder's own check
// (a range, an order) failed.
func (r *Reader) Failf(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, a...)
	}
	r.buf = nil
}

// Uint reads an unsigned varint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.Failf("%w", errTruncated)
		return 0
	case n < 0:
		r.Failf("codec: varint overflows 64 bits")
		return 0
	case n > 1 && r.buf[n-1] == 0:
		r.Failf("codec: overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a zig-zag varint.
func (r *Reader) Int() int64 {
	u := r.Uint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Float reads 8 IEEE 754 bytes.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.Failf("%w", errTruncated)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return f
}

// Bool reads one byte, 0 or 1.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) < 1 {
		r.Failf("%w", errTruncated)
		return false
	}
	b := r.buf[0]
	if b > 1 {
		r.Failf("codec: bool byte %d", b)
		return false
	}
	r.buf = r.buf[1:]
	return b == 1
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Len reads a length prefix: a count of items that each take at least
// size bytes, checked against the bytes left before a caller allocates
// for them.
func (r *Reader) Len(size int) int {
	n := r.Uint()
	if left := uint64(len(r.buf)); n > left/uint64(size) {
		r.Failf("codec: length %d of %d-byte items exceeds the %d bytes left", n, size, left)
		return 0
	}
	return int(n)
}
