// Seeded input generator. Every relation the benchmark hands to recur is
// made here from the run's --seed; the same seed gives the same inputs.
#ifndef RECURBENCH_GEN_H_
#define RECURBENCH_GEN_H_

#include <cstdint>
#include <vector>

#include "ra/relation.h"

namespace recurbench {

namespace ra = recur::ra;

// SplitMix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Derives an independent stream, so adding a draw to one input does not
  // shift another.
  Rng Fork(uint64_t salt) {
    return Rng(Next() ^ (salt * 0xd1b54a32d192ed03ULL));
  }

 private:
  uint64_t state_;
};

// A seeded relabelling of node ids 0..n-1 into [base, base + n).
std::vector<ra::Value> Labels(int n, ra::Value base, Rng& rng);

// Right and down edges of a w x h grid, nodes relabelled by the seed.
ra::Relation GridEdges(int w, int h, Rng& rng);

// Preferential-attachment tree on n nodes (node 0 the root): each new
// node picks its parent with probability proportional to 1 + the
// parent's child count, which skews fan-out. Returns (child, parent)
// pairs; node ids are relabelled by the seed.
ra::Relation PaTreeUp(int n, Rng& rng);

// The same-generation size of a tree whose flat relation is the diagonal:
// the sum over depths of (nodes at that depth)^2.
size_t SameGenerationSize(const ra::Relation& up);

// Of `draws` preferential-attachment trees, the one whose same-generation
// size is closest to `target`. Keeps the work of a same-generation
// fixpoint nearly equal across seeds while the tree's shape still varies.
ra::Relation PaTreeUpNear(int n, size_t target, int draws, Rng& rng);

// m distinct directed edges without self-loops over n nodes.
ra::Relation RandomEdges(int n, int m, Rng& rng);

// Transitive-closure size of a graph over nodes 0..n-1.
size_t ClosureSize(const ra::Relation& edges, int n);

// Of `draws` RandomEdges(n, m) graphs, the one whose closure size is
// closest to `target`, so that closure work varies little across seeds.
ra::Relation RandomEdgesNear(int n, int m, size_t target, int draws, Rng& rng);

// The same rows with the columns swapped.
ra::Relation Swapped(const ra::Relation& rel);

// (x, x) for every value x in the given columns of rel.
ra::Relation Diagonal(const ra::Relation& rel);

// Order-independent digest of a relation's rows: the sum and the xor of a
// mixed hash per row, folded together with the row count.
uint64_t RowDigest(const ra::Relation& rel);

}  // namespace recurbench

#endif  // RECURBENCH_GEN_H_
