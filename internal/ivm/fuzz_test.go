package ivm

import "testing"

// FuzzRecover feeds arbitrary (base, delta) segment bytes through the
// one recovery entry point, as a store would hand them over after a
// crash. Every input must either fail with an error or recover a
// maintainer whose view can be read; none may panic. The seed corpus in
// testdata/fuzz/FuzzRecover holds a real base+delta pair, a truncated
// pair and a bit-flipped pair.
func FuzzRecover(f *testing.F) {
	db := liveDB(f)
	f.Fuzz(func(t *testing.T, base, delta []byte) {
		chain := RestoreChain(base, [][]byte{delta}, 0, -1)
		m, err := Recover(db, paperView, "", chain, nil, nil)
		if err != nil {
			return
		}
		m.Result()
	})
}
