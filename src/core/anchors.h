// Anchor computation shared by the encoder and decoder.
//
// Both gateways MUST derive identical anchors from identical payload
// bytes — the cache-update procedures stay in lockstep only then — so the
// selection scheme lives in DreParams and this helper is the single place
// that interprets it.
#pragma once

#include <vector>

#include "core/params.h"
#include "rabin/window.h"
#include "util/bytes.h"

namespace bytecache::core {

/// Reusable per-codec anchor buffers: the output vector, the MAXP
/// selection scratch, and the scan-kernel fill buffers.  Encoder
/// and Decoder each own one, so steady-state anchor computation never
/// touches the allocator.
struct AnchorWorkspace {
  std::vector<rabin::Anchor> anchors;
  rabin::MaxpScratch maxp;
  rabin::ScanScratch scan;
};

/// Fills `ws.anchors` with the payload's selected anchors and returns a
/// reference to it.  The reference is invalidated by the next call with
/// the same workspace.
inline const std::vector<rabin::Anchor>& compute_anchors(
    const rabin::RabinTables& tables, util::BytesView payload,
    const DreParams& params, AnchorWorkspace& ws) {
  switch (params.select_mode) {
    case SelectMode::kMaxp:
      rabin::selected_anchors_maxp_into(tables, payload, params.maxp_p,
                                        ws.anchors, ws.maxp);
      return ws.anchors;
    case SelectMode::kSampleByte:
      rabin::selected_anchors_samplebyte_into(tables, payload,
                                              params.samplebyte_period,
                                              params.samplebyte_skip,
                                              ws.anchors, ws.scan);
      return ws.anchors;
    case SelectMode::kValueSampling:
      break;
  }
  rabin::selected_anchors_into(tables, payload, params.select_bits,
                               ws.anchors, ws.scan);
  return ws.anchors;
}

/// By-value convenience for callers without a long-lived workspace
/// (tests, one-shot analysis); the codecs use the workspace form.
[[nodiscard]] inline std::vector<rabin::Anchor> compute_anchors(
    const rabin::RabinTables& tables, util::BytesView payload,
    const DreParams& params) {
  AnchorWorkspace ws;
  compute_anchors(tables, payload, params, ws);
  return std::move(ws.anchors);
}

}  // namespace bytecache::core
