package transitions

import (
	"testing"

	"etlopt/internal/workflow"
)

// TestClassAllocatesNothing: the swap guard and FindDistributableActivities
// ask every successor a search generates for its activities' classes, so
// Class allocates nothing, for a package as for a single activity.
func TestClassAllocatesNothing(t *testing.T) {
	for _, x := range classInstances() {
		var c workflow.Class
		if n := testing.AllocsPerRun(100, func() { c |= x.act.Class() }); n != 0 {
			t.Errorf("%s: Class allocates %v times a call", x.name, n)
		}
	}
}
