#include "system/cosim.hpp"

#include "common/check.hpp"

namespace ioguard::sys {

namespace {

NodeId vm_node(VmId vm) { return NodeId{vm.value}; }
NodeId device_node(DeviceId dev) { return NodeId{20 + dev.value}; }

noc::Packet io_packet(noc::PacketKind kind, NodeId src, NodeId dst,
                      std::uint32_t payload_bytes, JobId job) {
  noc::Packet p;
  p.src = src;
  p.dst = dst;
  p.kind = kind;
  p.priority = 1;
  p.payload_bytes = payload_bytes;
  p.tag = job.value;
  return p;
}

}  // namespace

MeshTransit::MeshTransit(const TrialConfig& config, double background_rate)
    : mesh_(noc::MeshConfig{}),
      cps_(config.cal.cycles_per_slot),
      num_vms_(config.workload.num_vms),
      background_rate_(background_rate),
      background_rng_(config.trial_seed ^ 0x5151) {
  IOGUARD_CHECK_MSG(num_vms_ <= 16, "co-sim floorplan hosts up to 16 VMs");
  if (config.kind == SystemKind::kIoGuard) {
    link_.emplace(config.cal, config.kind, num_vms_,
                  config.workload.target_utilization, config.trial_seed);
    return;
  }
  for (std::uint32_t d = 0; d < workload::kCaseStudyDeviceCount; ++d) {
    mesh_.set_delivery_handler(
        device_node(DeviceId{d}), [this](const noc::Packet& p, Cycle now) {
          if (p.kind != noc::PacketKind::kIoRequest) return;
          request_latency_.add(static_cast<double>(p.latency()));
          const auto it = requests_.find(p.tag);
          IOGUARD_CHECK(it != requests_.end());
          arrived_.push_back(Arrived{now / cps_ + 1, it->second});
          requests_.erase(it);
        });
  }
  for (std::uint32_t v = 0; v < num_vms_; ++v) {
    mesh_.set_delivery_handler(
        vm_node(VmId{v}), [this](const noc::Packet& p, Cycle now) {
          if (p.kind != noc::PacketKind::kIoResponse) return;
          const auto it = responses_.find(p.tag);
          IOGUARD_CHECK(it != responses_.end());
          returned_.push_back(Returned{it->second, now / cps_ + 1});
          responses_.erase(it);
        });
  }
}

void MeshTransit::send_request(const workload::Job& job, Slot now) {
  if (link_) return link_->send_request(job, now);
  requests_.emplace(job.id.value, job);
  // A request carries a 32-byte command descriptor.
  mesh_.send(io_packet(noc::PacketKind::kIoRequest, vm_node(job.vm),
                       device_node(job.device), 32, job.id),
             now * cps_);
}

Slot MeshTransit::next_arrival(Slot now) const {
  if (link_) return link_->next_arrival(now);
  if (!requests_.empty()) return now + 1;
  return arrived_.empty() ? kNeverSlot : arrived_.front().arrival;
}

bool MeshTransit::busy() const {
  if (link_) return link_->busy();
  return !requests_.empty() || !arrived_.empty() || !responses_.empty();
}

void MeshTransit::queue_response(const iodev::Completion& done) {
  const workload::Job& job = done.job;
  responses_.emplace(job.id.value, done);
  to_send_.push_back(Outgoing{
      (done.completed_at - 1) * cps_,
      io_packet(noc::PacketKind::kIoResponse, device_node(job.device),
                vm_node(job.vm), job.payload_bytes, job.id)});
}

void MeshTransit::run_mesh(Slot from, Slot to) {
  const Cycle end = to * cps_;
  std::size_t next = 0;  // into to_send_, which is in send-cycle order
  for (Cycle now = from * cps_; now < end;) {
    if (background_rate_ <= 0.0 && mesh_.idle()) {
      // Nothing in flight and nothing injected before the next response:
      // ticking an idle mesh changes nothing, so jump there.
      const Cycle at = next < to_send_.size() ? to_send_[next].at : end;
      if (at > now) {
        now = at;
        continue;
      }
    }
    for (; next < to_send_.size() && to_send_[next].at <= now; ++next)
      mesh_.send(to_send_[next].packet, now);
    if (background_rate_ > 0.0) inject_background(now);
    mesh_.tick(now);
    ++now;
  }
  to_send_.clear();
}

void MeshTransit::inject_background(Cycle now) {
  for (std::uint32_t n = 0; n < num_vms_; ++n) {
    if (!background_rng_.bernoulli(background_rate_)) continue;
    noc::Packet p;
    p.src = NodeId{n};
    // Memory nodes on row 3.
    p.dst = NodeId{static_cast<std::uint32_t>(16 + background_rng_.index(4))};
    p.kind = noc::PacketKind::kBackground;
    p.priority = 5;
    p.payload_bytes = 64;
    mesh_.send(p, now);
  }
}

CosimResult run_cosim(const CosimConfig& config) {
  MeshTransit transit(config.trial, config.background_rate);
  CosimResult result;
  result.trial = run_pipeline(config.trial, transit);
  result.request_latency_cycles = transit.request_latency_cycles();
  result.noc_packets_delivered = transit.packets_delivered();
  return result;
}

}  // namespace ioguard::sys
