// Package keyenc encodes composite keys into byte strings whose bytewise
// lexicographic order equals the order of the original tuples.
//
// All BLAS indexes (the clustered {plabel,start} and {tag,start} keys and
// SP's secondary {data,start} index) are B+ trees keyed by byte strings;
// this package is the single place where tuple order is defined.
//
// Encoding rules:
//   - unsigned integers are big-endian fixed width (4, 8 or 16 bytes);
//   - strings are escaped so that an embedded 0x00 never terminates the
//     field early: 0x00 -> 0x00 0xFF, and the field ends with 0x00 0x00.
//     This preserves order because 0x00 0x00 (terminator) sorts before
//     0x00 0xFF (escaped zero byte) which sorts before any literal
//     byte > 0x00.
package keyenc

import (
	"bytes"
	"fmt"

	"repro/internal/uint128"
)

// Encoder accumulates an order-preserving composite key.
type Encoder struct {
	buf []byte
}

// New returns an Encoder, optionally reusing buf's storage.
func New(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Bytes returns the encoded key. The slice is owned by the encoder and is
// invalidated by further Put calls.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset discards any accumulated key bytes.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUint32 appends a 4-byte big-endian field.
func (e *Encoder) PutUint32(v uint32) *Encoder {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	return e
}

// PutUint64 appends an 8-byte big-endian field.
func (e *Encoder) PutUint64(v uint64) *Encoder {
	for i := 56; i >= 0; i -= 8 {
		e.buf = append(e.buf, byte(v>>uint(i)))
	}
	return e
}

// PutUint128 appends a 16-byte big-endian field.
func (e *Encoder) PutUint128(v uint128.Uint128) *Encoder {
	e.buf = v.AppendBytes(e.buf)
	return e
}

// PutString appends an escaped, terminated string field.
func (e *Encoder) PutString(s string) *Encoder {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			e.buf = append(e.buf, 0x00, 0xFF)
		} else {
			e.buf = append(e.buf, s[i])
		}
	}
	e.buf = append(e.buf, 0x00, 0x00)
	return e
}

// Uint32 is shorthand for a single-field uint32 key.
func Uint32(v uint32) []byte { return New(nil).PutUint32(v).Bytes() }

// Uint64 is shorthand for a single-field uint64 key.
func Uint64(v uint64) []byte { return New(nil).PutUint64(v).Bytes() }

// Uint128 is shorthand for a single-field 128-bit key.
func Uint128(v uint128.Uint128) []byte { return New(nil).PutUint128(v).Bytes() }

// String is shorthand for a single-field string key.
func String(s string) []byte { return New(nil).PutString(s).Bytes() }

// Decoder reads fields back out of an encoded key. Fields must be read in
// the order they were written.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a Decoder over key.
func NewDecoder(key []byte) *Decoder { return &Decoder{buf: key} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uint32 reads a 4-byte big-endian field.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, fmt.Errorf("keyenc: short key: need 4 bytes, have %d", d.Remaining())
	}
	b := d.buf[d.off:]
	d.off += 4
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// Uint64 reads an 8-byte big-endian field.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, fmt.Errorf("keyenc: short key: need 8 bytes, have %d", d.Remaining())
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(d.buf[d.off+i])
	}
	d.off += 8
	return v, nil
}

// Uint128 reads a 16-byte big-endian field.
func (d *Decoder) Uint128() (uint128.Uint128, error) {
	if d.Remaining() < 16 {
		return uint128.Zero, fmt.Errorf("keyenc: short key: need 16 bytes, have %d", d.Remaining())
	}
	v := uint128.FromBytes(d.buf[d.off:])
	d.off += 16
	return v, nil
}

// String reads an escaped, terminated string field.
func (d *Decoder) String() (string, error) {
	var out bytes.Buffer
	for {
		if d.Remaining() < 1 {
			return "", fmt.Errorf("keyenc: unterminated string field")
		}
		c := d.buf[d.off]
		d.off++
		if c != 0x00 {
			out.WriteByte(c)
			continue
		}
		if d.Remaining() < 1 {
			return "", fmt.Errorf("keyenc: truncated escape in string field")
		}
		esc := d.buf[d.off]
		d.off++
		switch esc {
		case 0x00:
			return out.String(), nil
		case 0xFF:
			out.WriteByte(0x00)
		default:
			return "", fmt.Errorf("keyenc: invalid escape byte 0x%02x", esc)
		}
	}
}

// Compare compares two encoded keys bytewise.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// PrefixSuccessor returns the smallest key that is greater than every key
// with prefix p, or nil if no such key exists (p is all 0xFF). The result
// is a fresh slice. It is used to build exclusive upper bounds for prefix
// range scans.
func PrefixSuccessor(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
