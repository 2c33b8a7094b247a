package service

import "context"

// HoldJournalAfter makes every job append n records to its journal and
// then wait until its run is canceled (Manager.Close or Cancel), at which
// point the next append fails. An interrupted journal then holds exactly
// n records, whatever the machine's speed. The returned func restores
// normal journaling; call it only while no job is running.
func HoldJournalAfter(n int) (release func()) {
	holdJournal = func(ctx context.Context, written int) error {
		if written < n {
			return nil
		}
		<-ctx.Done()
		return ctx.Err()
	}
	return func() { holdJournal = nil }
}
