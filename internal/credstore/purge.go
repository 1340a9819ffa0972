package credstore

import (
	"time"
)

// PurgeExpired deletes every expired entry in the store, returning how many
// were (or, with dryRun, would be) removed. Expired credentials are dead
// weight and residual risk on the repository host (paper §5.1), so
// operators purge them periodically (cmd/myproxy-admin) and the server can
// sweep on an interval.
func PurgeExpired(store Backend, now time.Time, dryRun bool) (int, error) {
	usernames, err := store.Usernames()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, u := range usernames {
		entries, err := store.List(u)
		if err != nil {
			return removed, err
		}
		for _, e := range entries {
			if !e.Expired(now) {
				continue
			}
			if !dryRun {
				if err := store.Delete(u, e.Name); err != nil && err != ErrNotFound {
					return removed, err
				}
			}
			removed++
		}
	}
	return removed, nil
}
