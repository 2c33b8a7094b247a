package fastjson

import (
	"strconv"
	"sync"
)

// Scanner reads the canonical JSON the appenders write. It handles a
// deliberately small subset: strings of printable ASCII without
// escapes, JSON numbers, booleans, and the punctuation between them,
// with optional whitespace. Anything else — an escape, a non-ASCII
// byte, null, a malformed number or truncated input — marks the scan
// failed, and the caller falls back to encoding/json, which then
// accepts or rejects the input exactly as it always would.
type Scanner struct {
	data []byte
	pos  int
	bad  bool
}

// NewScanner starts a scan of data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Failed reports whether the scan met input it does not handle.
func (s *Scanner) Failed() bool { return s.bad }

// Fail marks the scan failed (for callers that reject well-formed but
// unexpected input, such as an unknown key).
func (s *Scanner) Fail() { s.bad = true }

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it (0 at the
// end of input).
func (s *Scanner) peek() byte {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// Accept consumes c if it is the next non-space byte.
func (s *Scanner) Accept(c byte) bool {
	if s.peek() == c && !s.bad {
		s.pos++
		return true
	}
	return false
}

// Expect consumes c or fails the scan.
func (s *Scanner) Expect(c byte) {
	if !s.Accept(c) {
		s.bad = true
	}
}

// End reports whether the scan succeeded and consumed all non-space
// input.
func (s *Scanner) End() bool {
	s.skipSpace()
	return !s.bad && s.pos == len(s.data)
}

// String reads a string and returns its bytes (aliasing the input).
func (s *Scanner) String() []byte {
	if !s.Accept('"') {
		s.bad = true
		return nil
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		c := s.data[s.pos]
		if c == '"' {
			b := s.data[start:s.pos]
			s.pos++
			return b
		}
		if c < 0x20 || c >= 0x7f || c == '\\' {
			break
		}
	}
	s.bad = true
	return nil
}

// Null consumes the literal null if it comes next.
func (s *Scanner) Null() bool {
	s.skipSpace()
	if !s.bad && len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// Once fails the scan if *seen is already set, then sets it: decoders
// call it per known key so a repeated key takes the fallback path,
// which resolves repeats as encoding/json does.
func (s *Scanner) Once(seen *bool) {
	if *seen {
		s.bad = true
	}
	*seen = true
}

// Key reads an object key and the colon after it.
func (s *Scanner) Key() []byte {
	k := s.String()
	s.Expect(':')
	return k
}

// number consumes a JSON number and returns its text; integer limits
// it to an optional minus sign and digits.
func (s *Scanner) number(integer bool) []byte {
	s.skipSpace()
	d, start := s.data, s.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	digits := func() bool {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > j
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		s.bad = true
		return nil
	}
	if !integer {
		if i < len(d) && d[i] == '.' {
			i++
			if !digits() {
				s.bad = true
				return nil
			}
		}
		if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
			i++
			if i < len(d) && (d[i] == '+' || d[i] == '-') {
				i++
			}
			if !digits() {
				s.bad = true
				return nil
			}
		}
	}
	if i < len(d) {
		// The number must end at a delimiter, or "1.5" read as an
		// integer would stop at the dot.
		switch d[i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
		default:
			s.bad = true
			return nil
		}
	}
	s.pos = i
	return d[start:i]
}

// Float reads a number as a float64 (failing on out-of-range values,
// which encoding/json reports as a type error).
func (s *Scanner) Float() float64 {
	t := s.number(false)
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(t), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// Int reads an integer that fits in int64.
func (s *Scanner) Int() int64 {
	t := s.number(true)
	if s.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(t), 10, 64)
	if err != nil {
		s.bad = true
	}
	return v
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	s.skipSpace()
	rest := s.data[s.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
		return false
	}
	s.bad = true
	return false
}

// maxInterned bounds the intern table: decoded streams name the same
// few hundred layers and metrics over and over, and a hostile stream of
// distinct names must not grow the table without limit.
const maxInterned = 4096

var interned struct {
	sync.Mutex
	m map[string]string
}

// Intern returns b as a string, sharing one copy per distinct name
// while the table has room.
func Intern(b []byte) string {
	interned.Lock()
	defer interned.Unlock()
	if s, ok := interned.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if interned.m == nil {
		interned.m = make(map[string]string)
	}
	if len(interned.m) < maxInterned {
		interned.m[s] = s
	}
	return s
}
