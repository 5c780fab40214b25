#include "bjtgen/batchft.h"

#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/circuit.h"
#include "spice/solution.h"
#include "util/error.h"

namespace ahfic::bjtgen {

namespace sp = ahfic::spice;

BatchFtExtractor::BatchFtExtractor(std::vector<spice::BjtModel> cards,
                                   double vce, spice::AnalysisOptions opts)
    : vce_(vce),
      batch_([&] {
        if (vce <= 0.0) throw Error("BatchFtExtractor: vce must be > 0");
        if (cards.empty()) throw Error("BatchFtExtractor: no cards");
        // The scalar BiasCell circuit, one replica per card. Device
        // order matters: VB, VC, Q1 — identical unknown layout to the
        // scalar circuit is what the bit-identity contract rests on.
        std::vector<std::unique_ptr<sp::Circuit>> replicas;
        replicas.reserve(cards.size());
        for (const auto& card : cards) {
          auto ckt = std::make_unique<sp::Circuit>();
          const int c = ckt->node("c"), b = ckt->node("b");
          ckt->add<sp::VSource>("VB", b, 0, 0.0);
          ckt->add<sp::VSource>("VC", c, 0, vce);
          ckt->add<sp::Bjt>("Q1", *ckt, c, b, 0, card);
          replicas.push_back(std::move(ckt));
        }
        sp::ReplicaBatch::Options bo;
        bo.analysis = opts;
        return sp::ReplicaBatch(std::move(replicas), bo);
      }()) {
  const int R = batch_.replicaCount();
  vb_.resize(static_cast<size_t>(R));
  vc_.resize(static_cast<size_t>(R));
  q_.resize(static_cast<size_t>(R));
  for (int r = 0; r < R; ++r) {
    auto& ckt = batch_.circuit(r);
    vb_[static_cast<size_t>(r)] =
        dynamic_cast<sp::VSource*>(ckt.findDevice("VB"));
    vc_[static_cast<size_t>(r)] =
        dynamic_cast<sp::VSource*>(ckt.findDevice("VC"));
    q_[static_cast<size_t>(r)] = dynamic_cast<sp::Bjt*>(ckt.findDevice("Q1"));
  }
}

void BatchFtExtractor::setVbe(int r, double vbe) {
  vb_[static_cast<size_t>(r)]->setWaveform(
      std::make_unique<sp::DcWaveform>(vbe));
}

std::vector<BatchFtPoint> BatchFtExtractor::measureAnalyticAt(double ic) {
  const size_t R = static_cast<size_t>(batch_.replicaCount());
  std::vector<BiasSearch> search;
  search.reserve(R);
  for (size_t r = 0; r < R; ++r) search.emplace_back(q_[r]->model(), ic);
  static const obs::Counter extractions =
      obs::counter("bjtgen.ft_extractions");
  extractions.add(batch_.replicaCount());
  obs::ScopedSpan span("bjtgen.ft_extract_batch", "bjtgen");

  // Masked lockstep: one batched operating point per step solves every
  // still-searching die at its own BiasSearch Vbe. Finished dies keep
  // riding the block solves at their last Vbe; their results are taken
  // from the solve that finished them, as the scalar path does.
  std::vector<BatchFtPoint> out(R);
  for (bool searching = true; searching;) {
    for (size_t r = 0; r < R; ++r)
      if (search[r].status() == BiasSearch::Status::kSearching)
        setVbe(static_cast<int>(r), search[r].vbe());
    const auto res = batch_.op();
    const sp::BatchStats& bs = batch_.stats();
    stats_.newtonIterations += bs.newtonIterations - seen_.newtonIterations;
    stats_.matrixSolves += bs.matrixSolves - seen_.matrixSolves;
    seen_ = bs;
    searching = false;
    for (size_t r = 0; r < R; ++r) {
      if (search[r].status() != BiasSearch::Status::kSearching) continue;
      const sp::Solution s(&res.x[r]);
      switch (search[r].report(-s.at(vc_[r]->branchId()))) {
        case BiasSearch::Status::kSearching:
          searching = true;
          break;
        case BiasSearch::Status::kSolved:
          out[r].ok = true;
          out[r].point.ic = ic;
          out[r].point.vbe = search[r].vbe();
          out[r].point.ft = q_[r]->opInfo(s).ft();
          break;
        case BiasSearch::Status::kOutOfRange:
          out[r].error = BiasSearch::kOutOfRangeError;
          break;
      }
    }
  }
  return out;
}

}  // namespace ahfic::bjtgen
