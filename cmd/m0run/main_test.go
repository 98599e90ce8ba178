package main

import (
	"reflect"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
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

// -tier combinations that silently change the executing tier must be
// audited: meaningless combinations are hard errors, tracing flags
// downgrade an explicit translated request with a notice, and everything
// else passes through untouched. A -model image always gets its
// certified-loop table (it boots from its FlashImage), so the audit is
// the only place an explicit translated request can be refused.
func TestTierAudit(t *testing.T) {
	cases := []struct {
		name                      string
		tier                      device.Tier
		checked, profiling, model bool
		wantTier                  device.Tier
		wantNotice, wantErr       bool
		wantErrSub                string
	}{
		{name: "auto passes", tier: device.TierAuto, model: true, wantTier: device.TierAuto},
		{name: "legacy with tracing passes", tier: device.TierLegacy, profiling: true, wantTier: device.TierLegacy},
		{name: "predecoded with checked passes", tier: device.TierPredecoded, checked: true, model: true, wantTier: device.TierPredecoded},
		{name: "translated honored", tier: device.TierTranslated, model: true, wantTier: device.TierTranslated},
		{name: "translated+checked rejected", tier: device.TierTranslated, checked: true, model: true, wantErr: true, wantErrSub: "-checked"},
		{name: "translated without model rejected", tier: device.TierTranslated, wantErr: true, wantErrSub: "-model"},
		{name: "translated+tracing downgraded with notice", tier: device.TierTranslated, profiling: true, model: true, wantTier: device.TierPredecoded, wantNotice: true},
		{name: "auto without model passes", tier: device.TierAuto, wantTier: device.TierAuto},
		{name: "predecoded without model passes", tier: device.TierPredecoded, wantTier: device.TierPredecoded},
		{name: "translated+tracing without model rejected", tier: device.TierTranslated, profiling: true, wantErr: true, wantErrSub: "-model"},
		{name: "translated+checked without model rejected for -checked", tier: device.TierTranslated, checked: true, wantErr: true, wantErrSub: "-checked"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, notices, err := tierAudit(c.tier, c.checked, c.profiling, c.model)
			if c.wantErr {
				if err == nil || !strings.Contains(err.Error(), c.wantErrSub) {
					t.Fatalf("want error mentioning %q, got %v", c.wantErrSub, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != c.wantTier {
				t.Errorf("effective tier %q, want %q", got, c.wantTier)
			}
			if (len(notices) > 0) != c.wantNotice {
				t.Errorf("notices %v, wantNotice=%v", notices, c.wantNotice)
			}
		})
	}
}
