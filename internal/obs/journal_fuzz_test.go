package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJournal hardens the journal reader against hostile or damaged
// input: whatever bytes land in a journal file — malformed JSONL lines,
// truncated trailers, duplicate or missing seq numbers, absurd numbers —
// ReadJournal must either return events or an error, never panic, and
// the events it does return must be safe to consume. The seed corpus is
// a real journal produced by the recorder itself (the same event mix an
// etlrun invocation emits: run boundaries, node/batch/exchange traffic,
// staged and restored checkpoints, fault and retry events, summary
// trailer), plus hand-damaged variants of it.
func FuzzReadJournal(f *testing.F) {
	var buf bytes.Buffer
	j := NewJournal(&buf, nil)
	j.Emit(RunEvent("start", "engine/p4"))
	j.Emit(NodeEvent("1:σ(COST>=100)", 120, 0.004))
	j.Emit(BatchEvent("1:σ(COST>=100)", 3, 30))
	j.Emit(ExchangeEvent("2:γ(PKEY)", 120))
	j.Emit(CheckpointEvent("1:σ(COST>=100)", "staged", 120))
	j.Emit(FaultEvent("2:γ(PKEY)", 1, "emit", "transient"))
	j.Emit(RetryEvent("2:γ(PKEY)", 2, 0.001, "fault: injected transient fault at emit"))
	j.Emit(CheckpointEvent("1:σ(COST>=100)", "restored", 120))
	j.Emit(DriftEvent("1:σ(COST>=100)", 0.5, 0.45))
	j.Emit(RunEvent("end", "engine/p4"))
	if err := j.Close(); err != nil {
		f.Fatalf("recording seed journal: %v", err)
	}
	full := buf.Bytes()
	// The same events recorded with a registry: the trailer carries its
	// snapshot.
	reg := NewRegistry()
	var withSnap bytes.Buffer
	j = NewJournal(&withSnap, reg)
	rec := NewRecorder(reg, j)
	rec.Emit(NodeEvent("1:σ(COST>=100)", 120, 0.004))
	rec.Emit(DriftEvent("1:σ(COST>=100)", 0.5, 0.45))
	if err := j.Close(); err != nil {
		f.Fatalf("recording seed journal: %v", err)
	}

	f.Add(full)
	f.Add(withSnap.Bytes())
	f.Add(withSnap.Bytes()[:withSnap.Len()-40])                                                      // snapshot cut mid-JSON
	f.Add(full[:len(full)/2])                                                                        // truncated mid-file
	f.Add(bytes.TrimRight(full, "\n}0123456789"))                                                    // trailer cut mid-JSON
	f.Add([]byte(`{"seq":1,"t":"node","off":0.1}` + "\n" + `{"seq":1,"t":"node","off":0.2}` + "\n")) // duplicate seqs
	f.Add([]byte(`{"seq":-5,"t":"summary","off":-1,"events":-3}` + "\n"))
	f.Add([]byte("not json at all\n\n{\"seq\":2}\n"))
	f.Add([]byte(`{"seq":1e999,"t":"run"}` + "\n"))
	f.Add([]byte(`{"seq":3,"t":"` + strings.Repeat("x", 4096) + `"}` + "\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n'})

	f.Fuzz(func(t *testing.T, raw []byte) {
		evs, err := ReadJournal(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Returned events must be fully consumable without surprises.
		for _, e := range evs {
			_ = e.T
			_ = e.Seq
			_ = e.Rows
		}
	})
}
