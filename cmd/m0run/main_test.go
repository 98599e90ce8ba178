package main

import (
	"reflect"
	"testing"
)

// -batch used to silently ignore the single-run observability flags;
// they must now be reported as conflicts so the caller gets a clear
// error instead of an unprofiled run that looks profiled.
func TestBatchFlagConflicts(t *testing.T) {
	if got := batchFlagConflicts(false, 0, "", "", "", ""); len(got) != 0 {
		t.Errorf("no flags set, got conflicts %v", got)
	}
	got := batchFlagConflicts(true, 5, "out.folded", "p.json", "in.raw", "0x20000000")
	want := []string{"-profile", "-trace", "-folded", "-profile-json", "-in", "-dump-addr"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("conflicts = %v, want %v", got, want)
	}
	if got := batchFlagConflicts(false, 1, "", "", "", ""); !reflect.DeepEqual(got, []string{"-trace"}) {
		t.Errorf("trace-only conflicts = %v", got)
	}
}
