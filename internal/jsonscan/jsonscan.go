// Package jsonscan reads the JSON documents vnnd decodes most — request
// bodies and the networks they carry — in one pass, without reflection:
// a number routine, float matrices and vectors parsed where they lie, and
// a Walker over objects in canonical shape.
//
// It is the fast half of two-path decoders: every caller keeps
// encoding/json as the reference for what a document means and hands it
// anything the fast half gives up on. So the numbers here are the
// float64s encoding/json gives, bit for bit, and the Walker gives up on
// everything it does not decode exactly as encoding/json would: an
// escaped or repeated key, an escaped string, a value of another shape.
package jsonscan

import (
	"bytes"
	"fmt"
	"unicode/utf8"
)

// SkipSpace returns the index of the first byte from b[i] on that is not
// JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// SkipValue returns the index just past the JSON value starting at b[i],
// or -1 if it finds none. It only delimits: strings and brackets are
// matched, and everything else is left for a decoder to check.
func SkipValue(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return -1
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 { // the end of a scalar
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	if depth == 0 {
		return i
	}
	return -1
}

// matrixPrealloc caps how many values Matrix and vector allocate for
// before they are parsed (1 MiB of float64s), and an eighth of it the
// rows.
const matrixPrealloc = 1 << 17

// sizeHint counts what the array at b[i] can span: the commas (values
// less one) and the '[' (rows) before the first "]]" — before the first
// ']' for a vector — and before the first '"', '{' or '}', which no float
// array holds, so that the bytes after the array never size it. The
// count is exact for a well-formed array and only a hint otherwise, since
// the arrays grow past it, and it is capped, so a malformed one cannot
// size them either. Growing from a guess instead raised infer_churn's
// peak RSS by a sixth.
func sizeHint(b []byte, i int, end string) (vals, rows int) {
	span := b[i:]
	if e := bytes.Index(span, []byte(end)); e >= 0 {
		span = span[:e]
	}
	for _, c := range []byte(`"{}`) {
		if e := bytes.IndexByte(span, c); e >= 0 {
			span = span[:e]
		}
	}
	return min(bytes.Count(span, []byte(","))+1, matrixPrealloc),
		min(bytes.Count(span, []byte("[")), matrixPrealloc/8)
}

// Matrix parses the [[...],...] starting at b[i] and returns its rows
// with the index just past its closing bracket. The values go straight
// into flat, which Matrix also returns: the rows are cut from it back to
// back, each capped at its own end, so an empty matrix has no rows and a
// non-empty one is flat[0:c], flat[c:2c], … when every row has length c.
func Matrix(b []byte, i int) (rows [][]float64, flat []float64, end int, err error) {
	if i >= len(b) || b[i] != '[' {
		return nil, nil, i, fmt.Errorf("expected '[' at offset %d", i)
	}
	i = SkipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return [][]float64{}, []float64{}, i + 1, nil
	}
	vals, nrows := sizeHint(b, i, "]]")
	flat = make([]float64, 0, vals) // non-nil, so that empty rows are too
	// Until the last value is in, flat may move: a row holds only its
	// length, and the rows are cut from flat at the end.
	rows = make([][]float64, 0, nrows)
	for {
		if i >= len(b) || b[i] != '[' {
			return nil, nil, i, fmt.Errorf("expected row '[' at offset %d", i)
		}
		start := len(flat)
		if flat, i, err = values(b, SkipSpace(b, i+1), flat); err != nil {
			return nil, nil, i, err
		}
		rows = append(rows, flat[start:])
		i = SkipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = SkipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			break
		}
		return nil, nil, i, fmt.Errorf("expected ',' or ']' at offset %d", i)
	}
	start := 0
	for r, row := range rows {
		end := start + len(row)
		rows[r] = flat[start:end:end]
		start = end
	}
	return rows, flat, i + 1, nil
}

// vector parses the [...] of numbers starting at b[i] and returns it, a
// non-nil slice, with the index just past its closing bracket.
func vector(b []byte, i int) ([]float64, int, error) {
	if i >= len(b) || b[i] != '[' {
		return nil, i, fmt.Errorf("expected '[' at offset %d", i)
	}
	i = SkipSpace(b, i+1)
	vals, _ := sizeHint(b, i, "]")
	return values(b, i, make([]float64, 0, vals))
}

// values appends the numbers of the array whose '[' and the whitespace
// after it end just before b[i], and returns flat with the index just
// past the closing bracket. flat grows by doubling.
func values(b []byte, i int, flat []float64) ([]float64, int, error) {
	if i < len(b) && b[i] == ']' {
		return flat, i + 1, nil
	}
	for {
		f, j, err := Number(b, i)
		if err != nil {
			return nil, i, err
		}
		if len(flat) == cap(flat) {
			flat = append(make([]float64, 0, 2*cap(flat)), flat...)
		}
		flat = append(flat, f)
		i = SkipSpace(b, j)
		if i < len(b) && b[i] == ',' {
			i = SkipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			return flat, i + 1, nil
		}
		return nil, i, fmt.Errorf("expected ',' or ']' at offset %d", i)
	}
}

// Walker walks one document in canonical shape: B is the document and I
// the offset of the next value, whitespace before it skipped. Each method
// reports whether the document is still canonical; after a false, I is
// unspecified and the document is for encoding/json to decode.
type Walker struct {
	B []byte
	I int
}

// maxKeys is the most keys an object the Walker walks may have; no object
// vnnd decodes this way has more.
const maxKeys = 9

// Object walks the object at I, calling member for each key with I at its
// value; member decodes the value, leaving I just past it, or reports a
// key it does not know. An escaped key and a repeated key end the walk
// too. I ends past the closing brace and the whitespace after it.
func (w *Walker) Object(member func(key []byte) bool) bool {
	if !w.Eat('{') {
		return false
	}
	if w.Eat('}') {
		return true
	}
	var seen [maxKeys][]byte
	for n := 0; ; n++ {
		key, ok := w.rawString()
		if !ok || n == len(seen) {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		w.I = SkipSpace(w.B, w.I)
		if !w.Eat(':') || !member(key) {
			return false
		}
		w.I = SkipSpace(w.B, w.I)
		if w.Eat(',') {
			continue
		}
		return w.Eat('}')
	}
}

// Array walks the array at I, calling elem with I at each element; elem
// decodes it, leaving I just past it. I ends past the closing bracket and
// the whitespace after it.
func (w *Walker) Array(elem func() bool) bool {
	if !w.Eat('[') {
		return false
	}
	if w.Eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		w.I = SkipSpace(w.B, w.I)
		if w.Eat(',') {
			continue
		}
		return w.Eat(']')
	}
}

// Eat consumes c and the whitespace after it, if c is next.
func (w *Walker) Eat(c byte) bool {
	if w.I < len(w.B) && w.B[w.I] == c {
		w.I = SkipSpace(w.B, w.I+1)
		return true
	}
	return false
}

// rawString returns the bytes of the string at I and moves past it when
// the string holds no escape and no control character.
func (w *Walker) rawString() ([]byte, bool) {
	if w.I >= len(w.B) || w.B[w.I] != '"' {
		return nil, false
	}
	end := w.I + 1
	for end < len(w.B) && w.B[end] != '"' && w.B[end] != '\\' && w.B[end] >= 0x20 {
		end++
	}
	if end >= len(w.B) || w.B[end] != '"' {
		return nil, false
	}
	s := w.B[w.I+1 : end]
	w.I = end + 1
	return s, true
}

// String decodes the string at I when it holds no escape and is valid
// UTF-8: then its bytes are its value, as encoding/json gives it.
func (w *Walker) String() (string, bool) {
	s, ok := w.rawString()
	if !ok || !utf8.Valid(s) {
		return "", false
	}
	return string(s), true
}

// Int decodes the integer at I: an optional '-' and at most nine digits,
// no leading zero, no fraction and no exponent, so that it fits every
// int and encoding/json decodes it to the same value.
func (w *Walker) Int() (int, bool) {
	i := w.I
	neg := i < len(w.B) && w.B[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for ; i < len(w.B) && w.B[i] >= '0' && w.B[i] <= '9'; i++ {
		v = v*10 + int(w.B[i]-'0')
	}
	n := i - start
	if n == 0 || n > 9 || (n > 1 && w.B[start] == '0') {
		return 0, false
	}
	if i < len(w.B) && (w.B[i] == '.' || w.B[i] == 'e' || w.B[i] == 'E') {
		return 0, false
	}
	w.I = i
	if neg {
		v = -v
	}
	return v, true
}

// Matrix decodes the float matrix at I (see Matrix).
func (w *Walker) Matrix() (rows [][]float64, flat []float64, ok bool) {
	rows, flat, end, err := Matrix(w.B, w.I)
	if err != nil {
		return nil, nil, false
	}
	w.I = end
	return rows, flat, true
}

// Vector decodes the array of numbers at I into a non-nil slice.
func (w *Walker) Vector() ([]float64, bool) {
	v, end, err := vector(w.B, w.I)
	if err != nil {
		return nil, false
	}
	w.I = end
	return v, true
}
