#include "gen.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <numeric>
#include <set>
#include <utility>

namespace recurbench {

std::vector<ra::Value> Labels(int n, ra::Value base, Rng& rng) {
  std::vector<ra::Value> ids(n);
  std::iota(ids.begin(), ids.end(), base);
  for (int i = n - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  return ids;
}

ra::Relation GridEdges(int w, int h, Rng& rng) {
  const std::vector<ra::Value> id = Labels(w * h, 0, rng);
  ra::Relation rel(2);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int v = y * w + x;
      if (x + 1 < w) rel.Insert({id[v], id[v + 1]});
      if (y + 1 < h) rel.Insert({id[v], id[v + w]});
    }
  }
  return rel;
}

ra::Relation PaTreeUp(int n, Rng& rng) {
  const std::vector<ra::Value> id = Labels(n, 0, rng);
  std::vector<int> urn = {0};  // node i appears 1 + children(i) times
  ra::Relation up(2);
  for (int child = 1; child < n; ++child) {
    const int parent = urn[rng.Below(urn.size())];
    up.Insert({id[child], id[parent]});
    urn.push_back(parent);
    urn.push_back(child);
  }
  return up;
}

size_t SameGenerationSize(const ra::Relation& up) {
  std::unordered_map<ra::Value, ra::Value> parent;
  std::set<ra::Value> nodes;
  for (ra::TupleRef row : up.rows()) {
    parent[row[0]] = row[1];
    nodes.insert(row[0]);
    nodes.insert(row[1]);
  }
  std::map<int, size_t> per_depth;
  for (ra::Value v : nodes) {
    int d = 0;
    for (auto it = parent.find(v); it != parent.end();
         it = parent.find(it->second)) {
      ++d;
    }
    ++per_depth[d];
  }
  size_t total = 0;
  for (const auto& [d, count] : per_depth) total += count * count;
  return total;
}

ra::Relation PaTreeUpNear(int n, size_t target, int draws, Rng& rng) {
  ra::Relation best;
  size_t best_gap = SIZE_MAX;
  for (int i = 0; i < draws; ++i) {
    ra::Relation up = PaTreeUp(n, rng);
    const size_t size = SameGenerationSize(up);
    const size_t gap = size > target ? size - target : target - size;
    if (gap < best_gap) {
      best_gap = gap;
      best = std::move(up);
    }
  }
  return best;
}

ra::Relation RandomEdges(int n, int m, Rng& rng) {
  std::set<std::pair<int, int>> seen;
  ra::Relation rel(2);
  while (static_cast<int>(seen.size()) < m) {
    const int a = static_cast<int>(rng.Below(n));
    const int b = static_cast<int>(rng.Below(n));
    if (a == b || !seen.insert({a, b}).second) continue;
    rel.Insert({a, b});
  }
  return rel;
}

size_t ClosureSize(const ra::Relation& edges, int n) {
  std::vector<std::vector<int>> adj(n);
  for (ra::TupleRef row : edges.rows()) {
    adj[row[0]].push_back(static_cast<int>(row[1]));
  }
  size_t total = 0;
  std::vector<int> mark(n, -1);
  std::vector<int> stack;
  for (int s = 0; s < n; ++s) {
    for (int v : adj[s]) {
      if (mark[v] != s) {
        mark[v] = s;
        stack.push_back(v);
      }
    }
    while (!stack.empty()) {
      const int x = stack.back();
      stack.pop_back();
      ++total;
      for (int y : adj[x]) {
        if (mark[y] != s) {
          mark[y] = s;
          stack.push_back(y);
        }
      }
    }
  }
  return total;
}

ra::Relation RandomEdgesNear(int n, int m, size_t target, int draws,
                             Rng& rng) {
  ra::Relation best;
  size_t best_gap = SIZE_MAX;
  for (int i = 0; i < draws; ++i) {
    ra::Relation edges = RandomEdges(n, m, rng);
    const size_t size = ClosureSize(edges, n);
    const size_t gap = size > target ? size - target : target - size;
    if (gap < best_gap) {
      best_gap = gap;
      best = std::move(edges);
    }
  }
  return best;
}

ra::Relation Swapped(const ra::Relation& rel) {
  ra::Relation out(2);
  for (ra::TupleRef row : rel.rows()) out.Insert({row[1], row[0]});
  return out;
}

ra::Relation Diagonal(const ra::Relation& rel) {
  ra::Relation out(2);
  for (ra::TupleRef row : rel.rows()) {
    for (int c = 0; c < row.arity(); ++c) out.Insert({row[c], row[c]});
  }
  return out;
}

uint64_t RowDigest(const ra::Relation& rel) {
  uint64_t sum = 0, x = 0;
  for (ra::TupleRef row : rel.rows()) {
    uint64_t h = ra::HashValueSpan(row.data(), row.size());
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    sum += h;
    x ^= h;
  }
  return sum ^ (x * 0x9e3779b97f4a7c15ULL) ^ rel.size();
}

}  // namespace recurbench
