// Package fastjson holds the allocation-free JSON primitives behind the
// campaign record path: appenders that produce exactly the bytes
// encoding/json's Marshal would (HTML-safe string escaping, the same
// float formatting, the same *json.UnsupportedValueError for NaN and
// ±Inf), and a small scanner for hand-written decoders that recognise
// the canonical encoding and leave everything else to encoding/json.
package fastjson

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe marks the ASCII bytes a JSON string carries unescaped under
// json.Marshal's HTML-safe escaping.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string, escaped exactly as
// encoding/json.Marshal escapes it (including <, >, & and U+2028/2029;
// invalid UTF-8 becomes U+FFFD).
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f formatted exactly as encoding/json formats a
// float64. NaN and ±Inf have no JSON form: like json.Marshal it returns
// a *json.UnsupportedValueError and appends nothing.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	// Whole numbers, which nearly every counter reading is, print as
	// their integer digits: the shortest 'f' form encoding/json uses.
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10), nil
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-09" style exponents to "e-9".
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendBool appends true or false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}
