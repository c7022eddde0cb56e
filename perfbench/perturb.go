package main

import (
	"math/rand"
	"sort"

	"fairsched/internal/job"
	"fairsched/internal/swf"
)

// baseSeed generates each workload's base input. The generators' job mixes
// are heavy-tailed, so the cost of a pass varies by up to 3× between
// generator seeds; a benchmark whose cost moves that much with its seed
// cannot show a 10% change. The benchmark's seed therefore varies a base
// input of fixed size and difficulty instead (see perturb).
const baseSeed = 42

// submitJitter bounds the shift perturb applies to each submit time.
const submitJitter = 60

// perturb returns a copy of jobs with the user ids permuted and every
// submit time moved by up to ±submitJitter seconds, both drawn from seed.
// Job sizes and the offered load stay those of the base input; the order
// of arrivals, and so every scheduling decision, changes with the seed.
func perturb(jobs []*job.Job, seed int64) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	var users []int
	for _, j := range jobs {
		if !seen[j.User] {
			seen[j.User] = true
			users = append(users, j.User)
		}
	}
	sort.Ints(users)
	relabel := make(map[int]int, len(users))
	for i, p := range rng.Perm(len(users)) {
		relabel[users[i]] = users[p]
	}
	out := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		c := j.Clone()
		c.User = relabel[j.User]
		c.Submit = max(0, j.Submit+rng.Int63n(2*submitJitter+1)-submitJitter)
		out[i] = c
	}
	swf.SortJobs(out)
	return out
}
