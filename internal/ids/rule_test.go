package ids

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustRule(t *testing.T, line string) Rule {
	t.Helper()
	r, ok, err := ParseRule(line)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", line, err)
	}
	if !ok {
		t.Fatalf("ParseRule(%q): not a rule", line)
	}
	return r
}

func TestParseRuleBasic(t *testing.T) {
	r := mustRule(t, `alert tcp any any -> any 80 (msg:"test rule"; content:"abc"; nocase; classtype:attempted-admin; sid:42; rev:7;)`)
	if r.Action != "alert" || r.Proto != "tcp" {
		t.Errorf("header: %+v", r)
	}
	if r.Msg != "test rule" || r.Classtype != AttemptedAdmin || r.SID != 42 || r.Rev != 7 {
		t.Errorf("options: %+v", r)
	}
	if len(r.Contents) != 1 || string(r.Contents[0].Pattern) != "abc" || !r.Contents[0].Nocase {
		t.Errorf("contents: %+v", r.Contents)
	}
	if !r.Ports.Contains(80) || r.Ports.Contains(81) {
		t.Error("port set wrong")
	}
}

func TestParseRuleCommentsAndBlank(t *testing.T) {
	for _, line := range []string{"", "   ", "# comment", "  # indented comment"} {
		_, ok, err := ParseRule(line)
		if err != nil || ok {
			t.Errorf("ParseRule(%q) = ok=%v err=%v, want skip", line, ok, err)
		}
	}
}

func TestParseRulePortForms(t *testing.T) {
	r := mustRule(t, `alert tcp any any -> any [80,8080,8000:8010] (msg:"m"; content:"x"; sid:1;)`)
	for _, p := range []uint16{80, 8080, 8000, 8005, 8010} {
		if !r.Ports.Contains(p) {
			t.Errorf("port %d should match", p)
		}
	}
	for _, p := range []uint16{81, 7999, 8011} {
		if r.Ports.Contains(p) {
			t.Errorf("port %d should not match", p)
		}
	}
}

func TestParseRuleHexContent(t *testing.T) {
	r := mustRule(t, `alert tcp any any -> any any (msg:"hex"; content:"a|0D 0A|b"; sid:2;)`)
	want := []byte{'a', 0x0D, 0x0A, 'b'}
	if !bytes.Equal(r.Contents[0].Pattern, want) {
		t.Errorf("pattern = %v, want %v", r.Contents[0].Pattern, want)
	}
}

func TestParseRuleNegatedContent(t *testing.T) {
	r := mustRule(t, `alert tcp any any -> any any (msg:"neg"; content:"yes"; content:!"no"; sid:3;)`)
	if r.Contents[0].Negated || !r.Contents[1].Negated {
		t.Errorf("negation flags: %+v", r.Contents)
	}
}

func TestParseRuleQuotedSemicolon(t *testing.T) {
	r := mustRule(t, `alert tcp any any -> any any (msg:"semi;colon"; content:"a;b"; sid:4;)`)
	if r.Msg != "semi;colon" || string(r.Contents[0].Pattern) != "a;b" {
		t.Errorf("quoted semicolons mishandled: %+v", r)
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		`drop tcp any any -> any any (msg:"m"; content:"x"; sid:1;)`,             // unsupported action
		`alert icmp any any -> any any (msg:"m"; content:"x"; sid:1;)`,           // unsupported proto
		`alert tcp any any any any (msg:"m"; content:"x"; sid:1;)`,               // no direction
		`alert tcp any any -> any any (msg:"m"; content:"x";)`,                   // missing sid
		`alert tcp any any -> any any (msg:"m"; nocase; sid:1;)`,                 // modifier before content
		`alert tcp any any -> any any (msg:"m"; content:"x"; sid:zero;)`,         // bad sid
		`alert tcp any any -> any 99999 (msg:"m"; content:"x"; sid:1;)`,          // bad port
		`alert tcp any any -> any any (msg:"m"; content:"|GG|"; sid:1;)`,         // bad hex
		`alert tcp any any -> any any (msg:"m"; content:"|0D"; sid:1;)`,          // unterminated hex
		`alert tcp any any -> any any (msg:"unterminated; content:"x"; sid:1;)`,  // quote chaos
		`alert tcp any any -> any any (msg:"m"; frobnicate:1; sid:1;)`,           // unknown option
		`alert tcp any any -> any any (msg:"m"; content:"x"; offset:-1; sid:1;)`, // negative offset
		`alert tcp any any -> any any (msg:"m"; content:"x"; sid:1`,              // missing close paren
		`alert tcp any any -> any [] (msg:"m"; content:"x"; sid:1;)`,             // empty ports
		`alert tcp any any -> any [10:5] (msg:"m"; content:"x"; sid:1;)`,         // inverted range
		`alert tcp any any -> any any (msg:"m"; content:""; sid:1;)`,             // empty content
	}
	for _, line := range bad {
		if _, ok, err := ParseRule(line); err == nil && ok {
			t.Errorf("ParseRule(%q) should fail", line)
		}
	}
}

func TestParseRuleNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		_, _, _ = ParseRule(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseRulesMultiline(t *testing.T) {
	text := `# ruleset
alert tcp any any -> any any (msg:"one"; content:"a"; sid:1;)

alert udp any any -> any 53 (msg:"two"; content:"b"; sid:2;)
`
	rules, err := ParseRules(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	if rules[1].Proto != "udp" {
		t.Errorf("rule 2 proto = %q", rules[1].Proto)
	}
}

func TestParseRulesReportsLine(t *testing.T) {
	text := "alert tcp any any -> any any (msg:\"ok\"; content:\"a\"; sid:1;)\nbogus rule here\n"
	_, err := ParseRules(strings.NewReader(text))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line-2 error", err)
	}
}

// FuzzParseRule feeds arbitrary lines to the rule parser: it must never
// panic, and every rule it accepts must re-parse from its String() to
// the same rule.
func FuzzParseRule(f *testing.F) {
	for _, line := range strings.Split(DefaultRuleText, "\n") {
		f.Add(line)
	}
	f.Add(`alert udp any any <> any [53, 1000:2000] (msg:"x\"y"; content:!"|00 ff|a"; offset:1; depth:4; content:"b"; distance:0; within:9; sid:7;)`)
	f.Fuzz(func(t *testing.T, line string) {
		r, ok, err := ParseRule(line)
		if err != nil || !ok {
			return
		}
		again, ok, err := ParseRule(r.String())
		if err != nil || !ok {
			t.Fatalf("ParseRule(%q) accepted, but its String() %q does not re-parse: ok=%v err=%v", line, r.String(), ok, err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("ParseRule(%q) = %+v, re-parsed from String() as %+v", line, r, again)
		}
	})
}
