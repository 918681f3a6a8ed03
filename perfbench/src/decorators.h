// Decorators the benchmark wraps around the library's public seams, so each
// layer is timed and counted from outside:
//   CountingWal    storage::WalStorage — counts appends and bytes, and
//                                        records spans.
//   TimedEndpoint  gtm::GtmEndpoint    — one span per virtual call, one
//                                        root span per transaction (Begin ->
//                                        terminal commit/abort reply), and
//                                        the wall time from Begin to the
//                                        commit reply of every committed
//                                        transaction, traced or not.

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtm/endpoint.h"
#include "harness.h"
#include "storage/wal.h"

namespace perfbench {

class CountingWal : public preserial::storage::WalStorage {
 public:
  CountingWal()
      : inner_(std::make_unique<preserial::storage::MemoryWalStorage>()) {}

  preserial::Status Append(std::string_view bytes) override {
    ScopedSpan span(kSpanWalAppend);
    ++appends_;
    bytes_ += static_cast<int64_t>(bytes.size());
    return inner_->Append(bytes);
  }
  preserial::Status Sync() override {
    ScopedSpan span(kSpanWalSync);
    return inner_->Sync();
  }
  preserial::Result<std::string> ReadAll() const override {
    return inner_->ReadAll();
  }
  preserial::Status Reset(std::string_view bytes) override {
    return inner_->Reset(bytes);
  }

  // Not synchronized: read them only while no thread appends.
  int64_t appends() const { return appends_; }
  int64_t bytes() const { return bytes_; }

 private:
  std::unique_ptr<preserial::storage::WalStorage> inner_;
  int64_t appends_ = 0;
  int64_t bytes_ = 0;
};

class TimedEndpoint : public preserial::gtm::GtmEndpoint {
 public:
  using TxnId = preserial::TxnId;
  using Status = preserial::Status;
  using ObjectId = preserial::gtm::ObjectId;
  using MemberId = preserial::semantics::MemberId;
  using Operation = preserial::semantics::Operation;

  explicit TimedEndpoint(preserial::gtm::GtmEndpoint* inner) : inner_(inner) {}

  TxnId Begin(int priority) override {
    uint32_t root = kNoRoot;
    if (g_tracer != nullptr) {
      root = g_tracer->OpenRoot();
      g_tracer->SetRoot(root);
    }
    const uint64_t begin_ns = NowNs();
    TxnId txn;
    {
      ScopedSpan span(kSpanEpBegin);
      txn = inner_->Begin(priority);
    }
    open_[txn] = OpenTxn{root, begin_ns};
    return txn;
  }
  Status Invoke(TxnId txn, const ObjectId& object, MemberId member,
                const Operation& op) override {
    Enter(txn);
    ScopedSpan span(kSpanEpInvoke);
    return inner_->Invoke(txn, object, member, op);
  }
  preserial::Result<preserial::storage::Value> ReadLocal(
      TxnId txn, const ObjectId& object, MemberId member) override {
    Enter(txn);
    ScopedSpan span(kSpanEpReadLocal);
    return inner_->ReadLocal(txn, object, member);
  }
  Status RequestCommit(TxnId txn) override {
    Enter(txn);
    Status s;
    {
      ScopedSpan span(kSpanEpCommit);
      s = inner_->RequestCommit(txn);
    }
    Leave(txn, s.ok());
    return s;
  }
  Status RequestAbort(TxnId txn) override {
    Enter(txn);
    Status s;
    {
      ScopedSpan span(kSpanEpAbort);
      s = inner_->RequestAbort(txn);
    }
    Leave(txn, false);
    return s;
  }
  Status Sleep(TxnId txn) override {
    Enter(txn);
    ScopedSpan span(kSpanEpSleep);
    return inner_->Sleep(txn);
  }
  Status Awake(TxnId txn) override {
    Enter(txn);
    Status s;
    {
      ScopedSpan span(kSpanEpAwake);
      s = inner_->Awake(txn);
    }
    if (!s.ok()) Leave(txn, false);  // Algorithm 9 aborted the sleeper.
    return s;
  }
  Status InvokeOnce(TxnId txn, uint64_t seq, const ObjectId& object,
                    MemberId member, const Operation& op) override {
    Enter(txn);
    ScopedSpan span(kSpanEpInvokeOnce);
    return inner_->InvokeOnce(txn, seq, object, member, op);
  }
  Status CommitOnce(TxnId txn, uint64_t seq) override {
    Enter(txn);
    Status s;
    {
      ScopedSpan span(kSpanEpCommitOnce);
      s = inner_->CommitOnce(txn, seq);
    }
    Leave(txn, s.ok());
    return s;
  }
  Status AbortOnce(TxnId txn, uint64_t seq) override {
    Enter(txn);
    Status s;
    {
      ScopedSpan span(kSpanEpAbortOnce);
      s = inner_->AbortOnce(txn, seq);
    }
    Leave(txn, false);
    return s;
  }
  Status SleepOnce(TxnId txn, uint64_t seq) override {
    Enter(txn);
    ScopedSpan span(kSpanEpSleepOnce);
    return inner_->SleepOnce(txn, seq);
  }
  Status AwakeOnce(TxnId txn, uint64_t seq) override {
    Enter(txn);
    Status s;
    {
      ScopedSpan span(kSpanEpAwakeOnce);
      s = inner_->AwakeOnce(txn, seq);
    }
    if (!s.ok()) Leave(txn, false);
    return s;
  }
  preserial::Result<preserial::gtm::TxnState> StateOf(
      TxnId txn) const override {
    ScopedSpan span(kSpanEpStateOf);
    return inner_->StateOf(txn);
  }
  std::vector<preserial::gtm::GtmEvent> TakeEvents() override {
    ScopedSpan span(kSpanEpTakeEvents);
    return inner_->TakeEvents();
  }
  std::vector<TxnId> AbortExpiredWaits(preserial::Duration max_wait) override {
    std::vector<TxnId> victims;
    {
      ScopedSpan span(kSpanEpAbortExpiredWaits);
      victims = inner_->AbortExpiredWaits(max_wait);
    }
    for (TxnId v : victims) Leave(v, false);
    return victims;
  }

 // Wall microseconds from the Begin call to the commit reply, one value per
  // committed transaction, in commit order.
  const std::vector<double>& commit_latency_us() const {
    return commit_latency_us_;
  }

 private:
  struct OpenTxn {
    uint32_t root;  // kNoRoot in untraced passes.
    uint64_t begin_ns;
  };

  // Points the following call spans at txn's root span.
  void Enter(TxnId txn) {
    if (g_tracer == nullptr) return;
    auto it = open_.find(txn);
    g_tracer->SetRoot(it != open_.end() ? it->second.root : kNoRoot);
  }
  // Ends txn's bookkeeping once it reached a final reply: closes its root
  // span and, when it committed, records its latency. A repeated final
  // reply (a *Once retry) finds nothing left to end.
  void Leave(TxnId txn, bool committed) {
    auto it = open_.find(txn);
    if (it == open_.end()) return;
    if (committed) {
      commit_latency_us_.push_back(
          static_cast<double>(NowNs() - it->second.begin_ns) * 1e-3);
    }
    if (g_tracer != nullptr && it->second.root != kNoRoot) {
      g_tracer->CloseRoot(it->second.root);
    }
    open_.erase(it);
  }

  preserial::gtm::GtmEndpoint* inner_;
  std::unordered_map<TxnId, OpenTxn> open_;
  std::vector<double> commit_latency_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
