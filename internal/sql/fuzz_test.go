package sql

import "testing"

// FuzzParse feeds arbitrary text to both parsers. Neither may panic; a
// SELECT that parses must re-parse from its canonical String form to the
// same canonical form. The seed corpus in testdata/fuzz/FuzzParse holds
// the paper's view, a grouped and ordered query, a views.sql catalog and
// a few malformed inputs.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		// Only the absence of a panic is under test here.
		ParseCatalog(src)
		sel, err := Parse(src)
		if err != nil {
			return
		}
		canon := sel.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ninput: %q\ncanonical: %q", err, src, canon)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form is not a fixpoint:\n%q\n%q", canon, got)
		}
	})
}
