// RUBiS (an eBay-like online bidding system) adapted to the key-value
// model per §6.2: tables are horizontally partitioned across nodes (each
// node's shard holds an equal portion of every table), and each shard keeps
// a *local* index for ID generation, so insertions obtain unique IDs
// locally instead of updating a global index — exactly the two adaptations
// the paper describes.
//
// All 26 interaction types of RUBiS are modeled, five of which are update
// transactions (RegisterUser, RegisterItem, StoreBid, StoreComment,
// StoreBuyNow); the default workload issues 15% updates. Think times are
// drawn per interaction from the 2-10s range the paper quotes.
//
// Contention profile: ID-index rows and item rows of the node's own shard
// create local contention; bids/buy-nows/comments on items and users of
// other shards create remote contention.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace str::workload {

/// The 26 RUBiS interaction types. The first five are updates.
enum class RubisTxType : int {
  RegisterUser = 1,
  RegisterItem,
  StoreBid,
  StoreComment,
  StoreBuyNow,
  Home,
  Browse,
  BrowseCategories,
  SearchItemsInCategory,
  BrowseRegions,
  BrowseCategoriesInRegion,
  SearchItemsInRegion,
  ViewItem,
  ViewBidHistory,
  ViewUserInfo,
  BuyNowAuth,
  BuyNowForm,
  PutBidAuth,
  PutBidForm,
  PutCommentAuth,
  PutCommentForm,
  AboutMe,
  SellForm,
  SellItemForm,
  RegisterUserForm,
  ViewComments,
};

const char* to_string(RubisTxType t);

struct RubisConfig {
  std::uint32_t categories = 20;
  std::uint32_t regions = 62;  // RUBiS default
  /// Pre-populated entities per shard (grown by register transactions).
  std::uint32_t initial_users_per_shard = 1000;
  std::uint32_t initial_items_per_shard = 1000;
  /// Bids/views concentrate on the most recent `hot_window` items of a
  /// shard (auction recency skew).
  std::uint32_t hot_window = 100;
  /// Percentage of update interactions (RUBiS default workload: 15%).
  std::uint32_t update_pct = 15;
  /// Probability that an update's target entity lives on a remote shard.
  double remote_target_prob = 0.5;
  /// Think time range (uniform), per the paper: 2-10 s.
  Timestamp think_min = sec(2);
  Timestamp think_max = sec(10);
};

/// Key construction for the RUBiS tables (exposed for tests).
class RubisKeys {
 public:
  Key user(PartitionId shard, std::uint64_t id) const;
  Key item(PartitionId shard, std::uint64_t id) const;
  Key bid(PartitionId shard, std::uint64_t id) const;
  Key comment(PartitionId shard, std::uint64_t id) const;
  Key buy_now(PartitionId shard, std::uint64_t id) const;
  /// Per-shard ID-generation index rows (the §6.2 local index).
  Key user_index(PartitionId shard) const;
  Key item_index(PartitionId shard) const;
  Key bid_index(PartitionId shard) const;
  Key comment_index(PartitionId shard) const;
  Key buy_now_index(PartitionId shard) const;
  /// Per-shard category listing row (ids of items in the category).
  Key category_listing(PartitionId shard, std::uint32_t category) const;
  Key region_listing(PartitionId shard, std::uint32_t region) const;
};

class RubisWorkload final : public Workload {
 public:
  RubisWorkload(protocol::Cluster& cluster, RubisConfig config);

  void load(protocol::Cluster& cluster) override;
  std::shared_ptr<TxnProgram> next(NodeId node, Rng& rng) override;
  Timestamp think_time(const TxnProgram& program, Rng& rng) override;

  const RubisConfig& config() const { return config_; }
  const RubisKeys& keys() const { return keys_; }

  /// Approximate item count of a shard (kept workload-side so browse
  /// transactions can target recent items without a transactional read).
  std::uint64_t approx_items(PartitionId shard) const {
    return approx_items_[shard];
  }

 private:
  /// Pick a shard: the client's own with probability 1-remote_target_prob.
  PartitionId pick_shard(NodeId node, Rng& rng, bool force_remote) const;
  /// Draws for a client of `node`. Only `node`'s clients grow its own
  /// counters, so a client reads its home shard's live count and a remote
  /// shard's load-time count: no read crosses scheduler workers, and the
  /// draw is the same for every worker count.
  std::uint64_t pick_hot_item(PartitionId shard, NodeId node, Rng& rng) const;
  std::uint64_t pick_user(PartitionId shard, NodeId node, Rng& rng) const;

  protocol::Cluster& cluster_;
  RubisConfig config_;
  RubisKeys keys_;
  std::vector<std::uint64_t> approx_items_;
  std::vector<std::uint64_t> approx_users_;
};

}  // namespace str::workload
