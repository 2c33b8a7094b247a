package fastjson

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "node1", "engine/packets_intercepted", `we"ird\<&>`, "tab\there\nnl\r\b\f\x00\x1f\x7f",
		"läyer", "µs", "bad\xffutf8\xc3", "sep\u2028\u2029", "emoji 🙂",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 12345, 0.5, 1.234e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1e22,
		-3e-9, 1 << 53, 1<<53 + 2, -(1 << 53), 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		123456789.125, 2.5e-300,
	} {
		want, _ := json.Marshal(f)
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
}

// NaN and ±Inf fail with the error json.Marshal returns for them.
func TestAppendFloatNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || err.Error() != want.Error() || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %q, %v; want %v and nothing appended", f, got, err, want)
		}
	}
}

func TestScanner(t *testing.T) {
	s := NewScanner([]byte(` { "a" : -1.5e3 , "b":[true,false] ,"c": 42, "d": null } `))
	s.Expect('{')
	if k := s.Key(); string(k) != "a" {
		t.Fatalf("key %q", k)
	}
	if f := s.Float(); f != -1500 {
		t.Fatalf("float %v", f)
	}
	s.Expect(',')
	s.Key()
	s.Expect('[')
	if !s.Bool() || !s.Accept(',') || s.Bool() {
		t.Fatal("bools")
	}
	s.Expect(']')
	s.Expect(',')
	s.Key()
	if v := s.Int(); v != 42 {
		t.Fatalf("int %v", v)
	}
	s.Expect(',')
	s.Key()
	if !s.Null() {
		t.Fatal("null")
	}
	s.Expect('}')
	if !s.End() {
		t.Fatal("scan did not end cleanly")
	}

	// Everything outside the canonical subset fails the scan.
	for _, in := range []string{`"esc\"ape"`, `"ünï"`, `01`, `1.`, `.5`, `+1`, `1e`, `1x`, `"open`, `1e400`} {
		s := NewScanner([]byte(in))
		if in[0] == '"' {
			s.String()
		} else {
			s.Float()
		}
		if s.End() {
			t.Errorf("%s: scanned as canonical", in)
		}
	}
	if s := NewScanner([]byte(`1.5`)); s.Int() == 1 && s.End() {
		t.Error("1.5 read as an integer")
	}
}

func TestInternShares(t *testing.T) {
	a := Intern([]byte("tx_frames"))
	b := Intern([]byte("tx_frames"))
	if a != "tx_frames" || a != b {
		t.Fatal("intern mismatch")
	}
	if n := testing.AllocsPerRun(100, func() { Intern([]byte("tx_frames")) }); n != 0 {
		t.Errorf("interning a known name allocates %v times", n)
	}
}
