//go:build go1.24

package isis_test

import (
	"runtime"
	"testing"
	"weak"

	isis "repro"
)

// TestRuntimeLetsGoOfCrashedProcess: once crashed, a process is no longer
// listed by the runtime, and when its caller drops it too, nothing keeps it
// reachable — a long-running runtime with member churn does not accumulate
// its dead.
func TestRuntimeLetsGoOfCrashedProcess(t *testing.T) {
	rt := isis.NewSimulated()
	defer rt.Shutdown()
	a := rt.MustSpawn()
	ga, err := a.CreateGroup("g", isis.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gone := func() weak.Pointer[isis.Process] {
		p := rt.MustSpawn()
		if _, err := p.JoinGroup(ctxT(t), "g", a.ID(), isis.GroupConfig{}); err != nil {
			t.Fatal(err)
		}
		rt.Crash(p)
		rt.InjectFailure(p)
		return weak.Make(p)
	}()
	if err := isis.Await(ctxT(t), func() bool { return ga.Size() == 1 }); err != nil {
		t.Fatalf("crash never installed: %v", err)
	}
	if procs := rt.Processes(); len(procs) != 1 || procs[0] != a {
		t.Errorf("runtime lists %d processes after the crash, want only the founder", len(procs))
	}
	for i := 0; i < 3 && gone.Value() != nil; i++ {
		runtime.GC()
	}
	if gone.Value() != nil {
		t.Error("the crashed process is still reachable after its caller dropped it")
	}
}
