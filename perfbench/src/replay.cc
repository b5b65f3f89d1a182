// Correctness checks and the public-API layer replay.
#include <algorithm>
#include <cstring>

#include "bench.h"
#include "core/parallel.h"
#include "linalg/gemm.h"

namespace perfbench {
namespace {

using wr::linalg::ScoredItem;

std::string Describe(const char* what, std::size_t index) {
  return std::string(what) + " at rank " + std::to_string(index);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void AppendWindow(std::vector<std::size_t>* window, std::size_t item,
                  std::size_t max_len) {
  if (window->size() == max_len) window->erase(window->begin());
  window->push_back(item);
}

std::string CheckStructure(const wr::serve::ServeResponse& response,
                           const std::vector<std::size_t>& window,
                           std::size_t num_items) {
  const std::vector<ScoredItem>& topk = response.topk;
  if (topk.size() != kTopK) {
    return "response holds " + std::to_string(topk.size()) + " items, not " +
           std::to_string(kTopK);
  }
  for (std::size_t r = 0; r < topk.size(); ++r) {
    if (topk[r].item >= num_items) return Describe("item outside catalog", r);
    if (std::find(window.begin(), window.end(), topk[r].item) !=
        window.end()) {
      return Describe("history item served", r);
    }
    if (r > 0 && !wr::linalg::RanksBefore(topk[r - 1], topk[r])) {
      return Describe("not in canonical RanksBefore order", r);
    }
  }
  // No workload configures a ladder, so every answer is full quality.
  if (response.rung != 0) return "rung label out of range";
  if (response.session_len != window.size()) return "session length differs";
  return "";
}

std::string CompareTopK(const std::vector<ScoredItem>& served,
                        const std::vector<ScoredItem>& replayed) {
  if (served.size() != replayed.size()) return "list length differs";
  for (std::size_t r = 0; r < served.size(); ++r) {
    if (served[r].item != replayed[r].item) return Describe("item differs", r);
    if (!SameBits(served[r].score, replayed[r].score)) {
      return Describe("score bits differ", r);
    }
  }
  return "";
}

std::string SelfTestCorruption(const ServedRecord& verified,
                               const std::vector<std::size_t>& window,
                               std::size_t num_items) {
  const std::vector<ScoredItem>& good = verified.topk;
  if (!CompareTopK(good, good).empty()) return "verified list mismatches itself";
  std::vector<std::vector<ScoredItem>> bad;
  {  // two neighbours swapped
    std::vector<ScoredItem> v = good;
    std::swap(v[0], v[1]);
    bad.push_back(v);
  }
  {  // one item id replaced
    std::vector<ScoredItem> v = good;
    v[kTopK - 1].item = (v[kTopK - 1].item + 1) % num_items;
    bad.push_back(v);
  }
  {  // one score moved by one ulp
    std::vector<ScoredItem> v = good;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v[3].score, sizeof(bits));
    bits ^= 1;
    std::memcpy(&v[3].score, &bits, sizeof(bits));
    bad.push_back(v);
  }
  {  // one item dropped
    std::vector<ScoredItem> v = good;
    v.pop_back();
    bad.push_back(v);
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    if (CompareTopK(bad[i], good).empty()) {
      return "bitwise check missed corruption " + std::to_string(i);
    }
  }
  // Structural corruptions: a history item, an id past the catalog, a
  // broken order, a rung label out of range.
  wr::serve::ServeResponse response;
  response.topk = good;
  response.session_len = window.size();
  if (!CheckStructure(response, window, num_items).empty()) {
    return "structural check rejects a verified response";
  }
  std::vector<wr::serve::ServeResponse> broken(4, response);
  broken[0].topk[2].item = window.back();
  broken[1].topk[5].item = num_items;
  std::swap(broken[2].topk[0], broken[2].topk[kTopK - 1]);
  broken[3].rung = 1;
  for (std::size_t i = 0; i < broken.size(); ++i) {
    if (CheckStructure(broken[i], window, num_items).empty()) {
      return "structural check missed corruption " + std::to_string(i);
    }
  }
  return "";
}

LayerReplay::LayerReplay(Setup* setup, bool probes, Tracer* tracer)
    : setup_(setup), tracer_(tracer) {
  if (probes) {
    probes_.resize(3);
    probes_[0].name = "ivf8";
    probes_[0].nprobe = 8;
    probes_[1].name = "ivf2";
    probes_[1].nprobe = 2;
    probes_[2].name = "popularity";
  }
  Refresh();
}

void LayerReplay::Refresh() {
  table_ = setup_->model()->EncodeItems(/*train=*/false);
  exact_ = wr::linalg::MakeExactScorer();
  exact_->Rebuild(table_);
  probe_scorers_.clear();
  if (!probes_.empty()) {
    ivf_ = std::make_unique<wr::retrieval::SharedIvfIndex>(
        setup_->config.scorer);
    const std::uint64_t b0 = NowNs();
    ivf_->Rebuild(table_);
    totals_.ivf_build_s.push_back(static_cast<double>(NowNs() - b0) * 1e-9);
    for (const Probe& p : probes_) {
      probe_scorers_.push_back(
          p.nprobe == 0
              ? wr::retrieval::MakePopularityScorer(setup_->popularity)
              : ivf_->MakeView(p.nprobe));
      probe_scorers_.back()->Rebuild(table_);
    }
  }
  // Every cached step state was built against the old table; the service
  // drops its states on a refit too, so the next response is a replay.
  for (auto& entry : states_) entry.second.step.Clear();
}

std::vector<std::vector<ScoredItem>> LayerReplay::Score(
    const wr::linalg::Scorer& scorer, const wr::linalg::Matrix& users,
    const std::vector<std::vector<std::size_t>>& exclusions) const {
  std::vector<wr::linalg::TopKSelector> selectors;
  selectors.reserve(users.rows());
  for (std::size_t r = 0; r < users.rows(); ++r) selectors.emplace_back(kTopK);
  scorer.TopKBatch(users, exclusions, &selectors);
  std::vector<std::vector<ScoredItem>> out;
  out.reserve(selectors.size());
  for (const auto& s : selectors) out.push_back(s.SortedDescending());
  return out;
}

LayerReplay::BatchResult LayerReplay::ReplayBatch(
    const std::vector<ServedRecord>& batch, std::uint64_t batch_id) {
  BatchResult result;
  const std::size_t n = batch.size();
  const std::size_t hidden = setup_->model()->config().hidden_dim;
  const std::size_t max_len = setup_->model()->config().max_len;
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const std::uint64_t batch_start = NowNs();

  // Sessions in first-arrival order, each with its requests in serve order.
  std::vector<std::uint64_t> order;
  std::vector<std::vector<std::size_t>> bins;
  {
    std::unordered_map<std::uint64_t, std::size_t> slot;
    for (std::size_t r = 0; r < n; ++r) {
      const auto it = slot.find(batch[r].session);
      if (it == slot.end()) {
        slot.emplace(batch[r].session, order.size());
        order.push_back(batch[r].session);
        bins.emplace_back(1, r);
      } else {
        bins[it->second].push_back(r);
      }
    }
  }
  std::vector<State*> states(order.size());
  for (std::size_t s = 0; s < order.size(); ++s) states[s] = &states_[order[s]];

  wr::linalg::Matrix users(n, hidden);
  std::vector<std::vector<std::size_t>> exclusions(n);
  std::vector<std::uint64_t> step_start(n, 0);
  std::vector<std::uint64_t> step_end(n, 0);
  std::vector<std::size_t> steps(n, 0);
  const wr::seqrec::SasRecModel* model = setup_->model();
  const wr::linalg::Matrix& table = table_;
  const std::uint64_t s0 = NowNs();
  wr::core::ParallelFor(0, order.size(), 1, [&](std::size_t b, std::size_t e) {
    wr::linalg::Matrix h_row;
    for (std::size_t s = b; s < e; ++s) {
      State& st = *states[s];
      for (std::size_t r : bins[s]) {
        const std::uint64_t t0 = NowNs();
        const std::size_t before = st.window.size();
        AppendWindow(&st.window, batch[r].item, max_len);
        // The service replays the window when its response was not
        // incremental; a window shift always forces that.
        const bool replay = !batch[r].incremental ||
                            st.window.size() == before ||
                            st.step.len() + 1 != st.window.size();
        if (replay) {
          st.step.Clear();
          for (std::size_t t = 0; t + 1 < st.window.size(); ++t) {
            model->EncodeSequenceStep(table, st.window[t], &st.step, &h_row);
          }
        }
        model->EncodeSequenceStep(table, batch[r].item, &st.step, &h_row);
        const std::uint64_t t1 = NowNs();
        users.SetRow(r, h_row.Row(0));
        exclusions[r] = st.window;
        std::sort(exclusions[r].begin(), exclusions[r].end());
        step_start[r] = t0;
        step_end[r] = t1;
        steps[r] = replay ? st.window.size() : 1;
      }
    }
  });
  const std::uint64_t s1 = NowNs();
  result.step_wall_s = static_cast<double>(s1 - s0) * 1e-9;
  totals_.requests += n;
  for (std::size_t r = 0; r < n; ++r) {
    totals_.steps += steps[r];
    totals_.step_ns.push_back(step_end[r] - step_start[r]);
  }

  const std::uint64_t c0 = NowNs();
  const std::vector<std::vector<ScoredItem>> replayed =
      Score(*exact_, users, exclusions);
  const std::uint64_t c1 = NowNs();
  result.score_s = static_cast<double>(c1 - c0) * 1e-9;
  totals_.score_ns.push_back(c1 - c0);
  const double items = static_cast<double>(table_.rows());
  totals_.score_flops += 2.0 * static_cast<double>(n) * items *
                         static_cast<double>(hidden);
  totals_.table_bytes += items * static_cast<double>(hidden) * 8.0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::string diff = CompareTopK(batch[r].topk, replayed[r]);
    if (!diff.empty() && result.mismatches++ == 0) {
      result.first_mismatch =
          "session " + std::to_string(batch[r].session) + ": " + diff;
    }
  }

  // Offline quality of the other retrieval backends: each probe scorer
  // against the exact lists.
  std::vector<std::int64_t> children;
  if (tracing) children.push_back(tracer_->Add("linalg.score", c0, c1, -1, batch_id));
  for (std::size_t p = 0; p < probes_.size(); ++p) {
      Probe& probe = probes_[p];
      const std::uint64_t p0 = NowNs();
      const std::vector<std::vector<ScoredItem>> lists =
          Score(*probe_scorers_[p], users, exclusions);
      const std::uint64_t p1 = NowNs();
      probe.score_ns.push_back(p1 - p0);
      if (tracing) {
        children.push_back(tracer_->Add(
            probe.nprobe == 0 ? "retrieval.popularity" : "retrieval.ivf", p0,
            p1, -1, batch_id));
      }
      for (std::size_t r = 0; r < n; ++r) {
        for (const ScoredItem& e : replayed[r]) {
          for (const ScoredItem& g : lists[r]) {
            if (g.item == e.item) {
              probe.hits += 1.0;
              break;
            }
          }
        }
        probe.total += static_cast<double>(replayed[r].size());
        if (probe.nprobe > 0) {
          // Candidates: members of the nprobe best centroids under the
          // index's canonical (score desc, id asc) order.
          const wr::retrieval::IvfIndex& index = ivf_->index();
          wr::linalg::TopKSelector best(probe.nprobe);
          for (std::size_t c = 0; c < index.clusters(); ++c) {
            best.Push(c, wr::linalg::RowDotTransB(users, r, index.centroids(),
                                                  c));
          }
          for (const ScoredItem& c : best.SortedDescending()) {
            probe.candidates +=
                static_cast<double>(index.cluster_members(c.item).size());
          }
        }
        probe.queries += 1.0;
      }
  }

  if (tracing) {
    const std::int64_t root =
        tracer_->Add("replay.batch", batch_start, NowNs(), -1, batch_id);
    const std::int64_t step_span =
        tracer_->Add("seqrec.steps", s0, s1, root, batch_id);
    for (std::size_t r = 0; r < n; ++r) {
      tracer_->Add("seqrec.step", step_start[r], step_end[r], step_span,
                   batch_id);
    }
    tracer_->Reparent(children, root);
  }
  return result;
}

}  // namespace perfbench
