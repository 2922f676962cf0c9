package ivm

import (
	"strings"
	"testing"
)

// TestRecoverValidatesNamespaceOwnership: a namespaced checkpoint
// recovers only under its own namespace, and a mismatch fails before any
// state is rebuilt. The empty namespace is a namespace like any other:
// an un-namespaced checkpoint recovers only under "".
func TestRecoverValidatesNamespaceOwnership(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	m.SetNamespace("shard2/east")
	if got := m.Namespace(); got != "shard2/east" {
		t.Fatalf("Namespace() = %q after SetNamespace", got)
	}
	applyN(t, m, 100, 4)
	cp := fullCheckpoint(t, m)

	// Matching namespace: recovery succeeds and the namespace survives.
	rec, err := Recover(db, paperView, "shard2/east", cp, wal, nil)
	if err != nil {
		t.Fatalf("matching namespace: %v", err)
	}
	if got := rec.Namespace(); got != "shard2/east" {
		t.Errorf("recovered namespace %q, want shard2/east", got)
	}
	if got := pendingKey(rec); got != pendingKey(m) {
		t.Errorf("recovered pending %s, want %s", got, pendingKey(m))
	}

	// Foreign namespace, the empty one included: refused with both
	// names in the error.
	for _, foreign := range []string{"shard0/east", ""} {
		if _, err := Recover(db, paperView, foreign, cp, wal, nil); err == nil {
			t.Fatalf("recovering shard2/east's checkpoint under %q succeeded", foreign)
		} else if !strings.Contains(err.Error(), `"shard2/east"`) || !strings.Contains(err.Error(), `"`+foreign+`"`) {
			t.Errorf("mismatch error %q does not name both namespaces", err)
		}
	}

	// An un-namespaced checkpoint recovers under the empty namespace.
	m2, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	cp2 := fullCheckpoint(t, m2)
	if _, err := Recover(db, paperView, "", cp2, nil, nil); err != nil {
		t.Errorf("empty-namespace recovery: %v", err)
	}
	if _, err := Recover(db, paperView, "shard1/west", cp2, nil, nil); err == nil {
		t.Error("un-namespaced checkpoint recovered under a shard namespace")
	}
}
