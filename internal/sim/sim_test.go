package sim

import (
	"context"
	"testing"
	"time"
)

func TestDeploymentEndToEnd(t *testing.T) {
	d, err := NewDeployment(Config{Repos: 2, Portals: 2, Users: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if err := d.SeedCredentials(ctx, 12*time.Hour); err != nil {
		t.Fatal(err)
	}
	// Every (portal, user, repo) combination works: the paper's §3.3
	// many-to-many scalability goal.
	for p := 0; p < 2; p++ {
		for u := 0; u < 2; u++ {
			for r := 0; r < 2; r++ {
				cred, err := d.Get(ctx, p, u, r, time.Hour)
				if err != nil {
					t.Fatalf("Get(p=%d,u=%d,r=%d): %v", p, u, r, err)
				}
				if cred.TimeLeft() <= 0 {
					t.Error("expired delegation")
				}
			}
		}
	}
	if got := d.Repos[0].Stats().Gets.Load(); got != 4 {
		t.Errorf("repo0 gets = %d", got)
	}
}

func TestDeploymentUserProxy(t *testing.T) {
	d, err := NewDeployment(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p, err := d.UserProxy(0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if p.TimeLeft() <= 0 || p.TimeLeft() > time.Hour+time.Minute {
		t.Errorf("proxy lifetime %v", p.TimeLeft())
	}
}
