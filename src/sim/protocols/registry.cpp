#include "sim/protocols/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/optimal_k.hpp"
#include "core/qlec.hpp"
#include "sim/protocols/deec_protocol.hpp"
#include "sim/protocols/direct_protocol.hpp"
#include "sim/protocols/fcm_protocol.hpp"
#include "sim/protocols/heed_protocol.hpp"
#include "sim/protocols/ideec_protocol.hpp"
#include "sim/protocols/kmeans_protocol.hpp"
#include "sim/protocols/leach_protocol.hpp"
#include "sim/protocols/leach_rlc_protocol.hpp"
#include "sim/protocols/qelar_protocol.hpp"
#include "sim/protocols/qleach_protocol.hpp"
#include "sim/protocols/reech_me_protocol.hpp"
#include "sim/protocols/tl_leach_protocol.hpp"

namespace qlec {
namespace {

std::size_t resolve_k(const Network& net, const ProtocolOptions& opt) {
  if (opt.k > 0) return opt.k;
  if (opt.qlec.force_k > 0)
    return static_cast<std::size_t>(opt.qlec.force_k);
  return optimal_cluster_count_rounded(net.size(), net.cube_side(),
                                       net.mean_dist_to_bs(), opt.radio);
}

}  // namespace

std::unique_ptr<ClusteringProtocol> make_protocol(const std::string& name,
                                                  const Network& net,
                                                  const ProtocolOptions& opt) {
  const RadioModel radio(opt.radio);
  const std::size_t k = resolve_k(net, opt);
  const double p =
      static_cast<double>(k) /
      static_cast<double>(std::max<std::size_t>(net.size(), 1));

  if (name == "qlec") {
    QlecParams params = opt.qlec;
    params.hello_bits = opt.hello_bits;
    return std::make_unique<QlecProtocol>(net, params, radio,
                                          opt.death_line);
  }
  if (name == "kmeans")
    return std::make_unique<KmeansProtocol>(k, opt.death_line, radio,
                                            opt.hello_bits);
  if (name == "fcm")
    return std::make_unique<FcmProtocol>(k, opt.fcm_levels, opt.death_line,
                                         radio, opt.hello_bits);
  if (name == "leach")
    return std::make_unique<LeachProtocol>(p, opt.death_line, radio,
                                           opt.hello_bits);
  if (name == "deec") {
    DeecParams dp;
    dp.p_opt = p;
    dp.total_rounds = opt.qlec.total_rounds;
    return std::make_unique<DeecProtocol>(dp, opt.death_line, radio,
                                          opt.hello_bits);
  }
  if (name == "tl-leach") {
    // Level split: roughly a third of the heads serve as primaries.
    return std::make_unique<TlLeachProtocol>(p / 3.0, p, opt.death_line,
                                             radio, opt.hello_bits);
  }
  if (name == "heed") {
    HeedConfig hc;
    hc.cluster_range =
        cluster_radius(net.cube_side(), static_cast<double>(k));
    hc.c_prob = p;
    return std::make_unique<HeedProtocol>(hc, opt.death_line, radio,
                                          opt.hello_bits);
  }
  if (name == "ideec")
    return std::make_unique<ImprovedDeecProtocol>(
        k, opt.qlec.total_rounds, opt.death_line, radio, opt.hello_bits);
  if (name == "qelar") {
    QelarProtocol::Config qc;
    qc.qelar.gamma = opt.qlec.gamma;
    // Scale the neighbour radius with the deployment (~cluster radius for
    // k_opt keeps the graph connected without being complete).
    qc.comm_range = std::max(
        40.0, 1.2 * cluster_radius(net.cube_side(), static_cast<double>(k)));
    return std::make_unique<QelarProtocol>(qc);
  }
  if (name == "q-leach")
    return std::make_unique<QLeachProtocol>(p, opt.sector_mode,
                                            opt.death_line, radio,
                                            opt.hello_bits);
  if (name == "reech-me")
    return std::make_unique<ReechMeProtocol>(opt.sector_mode, opt.death_line,
                                             radio, opt.hello_bits);
  if (name == "leach-rlc")
    return std::make_unique<LeachRlcProtocol>(
        make_controller(opt.controller, k, p), opt.death_line, radio,
        opt.hello_bits);
  if (name == "direct") return std::make_unique<DirectProtocol>();
  throw std::invalid_argument("unknown protocol: " + name);
}

std::vector<std::string> protocol_names() {
  return {"qlec",  "ideec",    "kmeans",  "fcm",      "leach",
          "deec",  "heed",     "tl-leach", "qelar",   "direct",
          "q-leach", "reech-me", "leach-rlc"};
}

}  // namespace qlec
