#include "workload/rubis.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "protocol/partition_map.hpp"

namespace str::workload {

namespace {

using protocol::PartitionMap;

constexpr int kTableShift = 44;
constexpr std::uint64_t kTableUser = 1;
constexpr std::uint64_t kTableItem = 2;
constexpr std::uint64_t kTableBid = 3;
constexpr std::uint64_t kTableComment = 4;
constexpr std::uint64_t kTableBuyNow = 5;
constexpr std::uint64_t kTableIndex = 6;
constexpr std::uint64_t kTableCategory = 7;
constexpr std::uint64_t kTableRegion = 8;

Key table_key(PartitionId p, std::uint64_t table, std::uint64_t rest) {
  STR_ASSERT(rest < (std::uint64_t{1} << kTableShift));
  return PartitionMap::make_key(p, (table << kTableShift) | rest);
}

std::uint64_t parse_u64(const std::string& s) {
  return s.empty() ? 0 : std::stoull(s);
}

std::string pad_record(std::string rec, std::size_t size) {
  if (rec.size() < size) rec.append(size - rec.size(), '.');
  return rec;
}

}  // namespace

const char* to_string(RubisTxType t) {
  switch (t) {
    case RubisTxType::RegisterUser: return "RegisterUser";
    case RubisTxType::RegisterItem: return "RegisterItem";
    case RubisTxType::StoreBid: return "StoreBid";
    case RubisTxType::StoreComment: return "StoreComment";
    case RubisTxType::StoreBuyNow: return "StoreBuyNow";
    case RubisTxType::Home: return "Home";
    case RubisTxType::Browse: return "Browse";
    case RubisTxType::BrowseCategories: return "BrowseCategories";
    case RubisTxType::SearchItemsInCategory: return "SearchItemsInCategory";
    case RubisTxType::BrowseRegions: return "BrowseRegions";
    case RubisTxType::BrowseCategoriesInRegion: return "BrowseCategoriesInRegion";
    case RubisTxType::SearchItemsInRegion: return "SearchItemsInRegion";
    case RubisTxType::ViewItem: return "ViewItem";
    case RubisTxType::ViewBidHistory: return "ViewBidHistory";
    case RubisTxType::ViewUserInfo: return "ViewUserInfo";
    case RubisTxType::BuyNowAuth: return "BuyNowAuth";
    case RubisTxType::BuyNowForm: return "BuyNowForm";
    case RubisTxType::PutBidAuth: return "PutBidAuth";
    case RubisTxType::PutBidForm: return "PutBidForm";
    case RubisTxType::PutCommentAuth: return "PutCommentAuth";
    case RubisTxType::PutCommentForm: return "PutCommentForm";
    case RubisTxType::AboutMe: return "AboutMe";
    case RubisTxType::SellForm: return "SellForm";
    case RubisTxType::SellItemForm: return "SellItemForm";
    case RubisTxType::RegisterUserForm: return "RegisterUserForm";
    case RubisTxType::ViewComments: return "ViewComments";
  }
  return "?";
}

Key RubisKeys::user(PartitionId s, std::uint64_t id) const {
  return table_key(s, kTableUser, id);
}
Key RubisKeys::item(PartitionId s, std::uint64_t id) const {
  return table_key(s, kTableItem, id);
}
Key RubisKeys::bid(PartitionId s, std::uint64_t id) const {
  return table_key(s, kTableBid, id);
}
Key RubisKeys::comment(PartitionId s, std::uint64_t id) const {
  return table_key(s, kTableComment, id);
}
Key RubisKeys::buy_now(PartitionId s, std::uint64_t id) const {
  return table_key(s, kTableBuyNow, id);
}
Key RubisKeys::user_index(PartitionId s) const {
  return table_key(s, kTableIndex, 1);
}
Key RubisKeys::item_index(PartitionId s) const {
  return table_key(s, kTableIndex, 2);
}
Key RubisKeys::bid_index(PartitionId s) const {
  return table_key(s, kTableIndex, 3);
}
Key RubisKeys::comment_index(PartitionId s) const {
  return table_key(s, kTableIndex, 4);
}
Key RubisKeys::buy_now_index(PartitionId s) const {
  return table_key(s, kTableIndex, 5);
}
Key RubisKeys::category_listing(PartitionId s, std::uint32_t category) const {
  return table_key(s, kTableCategory, category);
}
Key RubisKeys::region_listing(PartitionId s, std::uint32_t region) const {
  return table_key(s, kTableRegion, region);
}

namespace {

/// Generic read-only interaction: a fixed list of keys read in sequence.
class ReadOnlyTxn final : public TxnProgram {
 public:
  ReadOnlyTxn(RubisTxType type, std::vector<Key> reads)
      : type_(type), reads_(std::move(reads)) {}

  int type() const override { return static_cast<int>(type_); }

  sim::Fiber execute(protocol::TxnHandle tx,
                     std::shared_ptr<TxnProgram> self) override {
    (void)self;
    for (Key k : reads_) {
      auto r = co_await tx.read(k);
      if (r.aborted) co_return;
    }
    tx.commit();
  }

 private:
  RubisTxType type_;
  std::vector<Key> reads_;
};

/// RegisterUser / RegisterItem: RMW the shard-local ID index, insert the
/// entity; RegisterItem also appends to a category/region listing.
class RegisterTxn final : public TxnProgram {
 public:
  RegisterTxn(RubisTxType type, const RubisKeys& keys, PartitionId shard,
              std::uint32_t category, std::uint32_t region)
      : type_(type), keys_(keys), shard_(shard), category_(category),
        region_(region) {}

  int type() const override { return static_cast<int>(type_); }

  sim::Fiber execute(protocol::TxnHandle tx,
                     std::shared_ptr<TxnProgram> self) override {
    (void)self;
    const bool is_item = type_ == RubisTxType::RegisterItem;
    const Key index_key =
        is_item ? keys_.item_index(shard_) : keys_.user_index(shard_);
    auto idx = co_await tx.read(index_key);
    if (idx.aborted) co_return;
    const std::uint64_t id = idx.found ? parse_u64(idx.value) : 0;
    tx.write(index_key, std::to_string(id + 1));
    if (is_item) {
      tx.write(keys_.item(shard_, id),
               pad_record("item|seller|0|0", 300));  // nb_bids, max_bid
      // Append to the shard's category and region listings (stored as the
      // id of the newest item; browse reads the recent window below it).
      tx.write(keys_.category_listing(shard_, category_), std::to_string(id));
      tx.write(keys_.region_listing(shard_, region_), std::to_string(id));
    } else {
      tx.write(keys_.user(shard_, id),
               pad_record("user|0|0", 200));  // rating, balance
    }
    tx.commit();
  }

 private:
  RubisTxType type_;
  const RubisKeys& keys_;
  PartitionId shard_;
  std::uint32_t category_;
  std::uint32_t region_;
};

/// StoreBid: read the item (possibly remote), RMW its bid summary, RMW the
/// local bid index and insert the bid row.
class StoreBidTxn final : public TxnProgram {
 public:
  StoreBidTxn(const RubisKeys& keys, PartitionId item_shard,
              std::uint64_t item_id, PartitionId home_shard)
      : keys_(keys), item_shard_(item_shard), item_id_(item_id),
        home_shard_(home_shard) {}

  int type() const override { return static_cast<int>(RubisTxType::StoreBid); }

  sim::Fiber execute(protocol::TxnHandle tx,
                     std::shared_ptr<TxnProgram> self) override {
    (void)self;
    auto item = co_await tx.read(keys_.item(item_shard_, item_id_));
    if (item.aborted) co_return;
    // Bump the item's bid counter (field 3 of "item|seller|nb|max").
    std::string rec = item.found ? item.value : "item|seller|0|0";
    const std::size_t pos = rec.rfind('|');
    std::string head = rec.substr(0, pos);
    const std::size_t pos2 = head.rfind('|');
    const std::uint64_t nb = parse_u64(head.substr(pos2 + 1));
    tx.write(keys_.item(item_shard_, item_id_),
             head.substr(0, pos2 + 1) + std::to_string(nb + 1) + "|" +
                 rec.substr(pos + 1));

    auto idx = co_await tx.read(keys_.bid_index(home_shard_));
    if (idx.aborted) co_return;
    const std::uint64_t bid_id = idx.found ? parse_u64(idx.value) : 0;
    tx.write(keys_.bid_index(home_shard_), std::to_string(bid_id + 1));
    tx.write(keys_.bid(home_shard_, bid_id),
             pad_record("bid|" + std::to_string(item_id_), 60));
    tx.commit();
  }

 private:
  const RubisKeys& keys_;
  PartitionId item_shard_;
  std::uint64_t item_id_;
  PartitionId home_shard_;
};

/// StoreComment: RMW the target user's rating (possibly remote), insert the
/// comment locally.
class StoreCommentTxn final : public TxnProgram {
 public:
  StoreCommentTxn(const RubisKeys& keys, PartitionId user_shard,
                  std::uint64_t user_id, PartitionId home_shard)
      : keys_(keys), user_shard_(user_shard), user_id_(user_id),
        home_shard_(home_shard) {}

  int type() const override {
    return static_cast<int>(RubisTxType::StoreComment);
  }

  sim::Fiber execute(protocol::TxnHandle tx,
                     std::shared_ptr<TxnProgram> self) override {
    (void)self;
    auto user = co_await tx.read(keys_.user(user_shard_, user_id_));
    if (user.aborted) co_return;
    tx.write(keys_.user(user_shard_, user_id_),
             (user.found ? user.value : "user|0|0") + "+");
    auto idx = co_await tx.read(keys_.comment_index(home_shard_));
    if (idx.aborted) co_return;
    const std::uint64_t id = idx.found ? parse_u64(idx.value) : 0;
    tx.write(keys_.comment_index(home_shard_), std::to_string(id + 1));
    tx.write(keys_.comment(home_shard_, id),
             pad_record("comment|" + std::to_string(user_id_), 500));
    tx.commit();
  }

 private:
  const RubisKeys& keys_;
  PartitionId user_shard_;
  std::uint64_t user_id_;
  PartitionId home_shard_;
};

/// StoreBuyNow: RMW the item's quantity (possibly remote), insert the
/// buy-now record locally.
class StoreBuyNowTxn final : public TxnProgram {
 public:
  StoreBuyNowTxn(const RubisKeys& keys, PartitionId item_shard,
                 std::uint64_t item_id, PartitionId home_shard)
      : keys_(keys), item_shard_(item_shard), item_id_(item_id),
        home_shard_(home_shard) {}

  int type() const override {
    return static_cast<int>(RubisTxType::StoreBuyNow);
  }

  sim::Fiber execute(protocol::TxnHandle tx,
                     std::shared_ptr<TxnProgram> self) override {
    (void)self;
    auto item = co_await tx.read(keys_.item(item_shard_, item_id_));
    if (item.aborted) co_return;
    tx.write(keys_.item(item_shard_, item_id_),
             (item.found ? item.value : "item|seller|0|0") + "-");
    auto idx = co_await tx.read(keys_.buy_now_index(home_shard_));
    if (idx.aborted) co_return;
    const std::uint64_t id = idx.found ? parse_u64(idx.value) : 0;
    tx.write(keys_.buy_now_index(home_shard_), std::to_string(id + 1));
    tx.write(keys_.buy_now(home_shard_, id),
             pad_record("buynow|" + std::to_string(item_id_), 60));
    tx.commit();
  }

 private:
  const RubisKeys& keys_;
  PartitionId item_shard_;
  std::uint64_t item_id_;
  PartitionId home_shard_;
};

}  // namespace

RubisWorkload::RubisWorkload(protocol::Cluster& cluster, RubisConfig config)
    : cluster_(cluster), config_(config) {
  approx_items_.assign(cluster.num_nodes(), config_.initial_items_per_shard);
  approx_users_.assign(cluster.num_nodes(), config_.initial_users_per_shard);
}

void RubisWorkload::load(protocol::Cluster& cluster) {
  // Eagerly load only the contended rows: the per-shard indices and the
  // category/region listing heads. Entities materialize lazily.
  for (PartitionId s = 0; s < cluster.pmap().num_partitions(); ++s) {
    cluster.load(keys_.user_index(s),
                 std::to_string(config_.initial_users_per_shard));
    cluster.load(keys_.item_index(s),
                 std::to_string(config_.initial_items_per_shard));
    cluster.load(keys_.bid_index(s), "0");
    cluster.load(keys_.comment_index(s), "0");
    cluster.load(keys_.buy_now_index(s), "0");
    for (std::uint32_t c = 0; c < config_.categories; ++c) {
      cluster.load(keys_.category_listing(s, c),
                   std::to_string(config_.initial_items_per_shard - 1));
    }
    for (std::uint32_t r = 0; r < config_.regions; ++r) {
      cluster.load(keys_.region_listing(s, r),
                   std::to_string(config_.initial_items_per_shard - 1));
    }
  }
}

PartitionId RubisWorkload::pick_shard(NodeId node, Rng& rng,
                                      bool force_remote) const {
  const std::uint32_t n = cluster_.num_nodes();
  if (n == 1) return 0;
  if (force_remote || rng.chance(config_.remote_target_prob)) {
    PartitionId other;
    do {
      other = static_cast<PartitionId>(rng.uniform(n));
    } while (other == node);
    return other;
  }
  return static_cast<PartitionId>(node);
}

std::uint64_t RubisWorkload::pick_hot_item(PartitionId shard, NodeId node,
                                            Rng& rng) const {
  const std::uint64_t count = shard == node
                                  ? approx_items_[shard]
                                  : config_.initial_items_per_shard;
  const std::uint64_t window = std::min<std::uint64_t>(config_.hot_window, count);
  return count - 1 - rng.uniform(window);
}

std::uint64_t RubisWorkload::pick_user(PartitionId shard, NodeId node,
                                       Rng& rng) const {
  const std::uint64_t count = shard == node
                                  ? approx_users_[shard]
                                  : config_.initial_users_per_shard;
  return rng.uniform(std::max<std::uint64_t>(1, count));
}

std::shared_ptr<TxnProgram> RubisWorkload::next(NodeId node, Rng& rng) {
  const auto home = static_cast<PartitionId>(node);
  const std::uint64_t roll = rng.uniform(100);

  if (roll < config_.update_pct) {
    // Update mix (relative weights approximating RUBiS's default matrix):
    // StoreBid 7, StoreBuyNow 3, StoreComment 2, RegisterItem 2,
    // RegisterUser 1 — scaled to update_pct.
    const std::uint64_t u = rng.uniform(15);
    if (u < 7) {
      const PartitionId s = pick_shard(node, rng, false);
      return std::make_shared<StoreBidTxn>(
          keys_, s, pick_hot_item(s, node, rng), home);
    }
    if (u < 10) {
      const PartitionId s = pick_shard(node, rng, false);
      return std::make_shared<StoreBuyNowTxn>(
          keys_, s, pick_hot_item(s, node, rng), home);
    }
    if (u < 12) {
      const PartitionId s = pick_shard(node, rng, false);
      return std::make_shared<StoreCommentTxn>(
          keys_, s, pick_user(s, node, rng), home);
    }
    if (u < 14) {
      ++approx_items_[home];
      return std::make_shared<RegisterTxn>(
          RubisTxType::RegisterItem, keys_, home,
          static_cast<std::uint32_t>(rng.uniform(config_.categories)),
          static_cast<std::uint32_t>(rng.uniform(config_.regions)));
    }
    ++approx_users_[home];
    return std::make_shared<RegisterTxn>(RubisTxType::RegisterUser, keys_,
                                         home, 0, 0);
  }

  // Read-only mix over the 21 browse/view/form interactions. Weights are
  // RUBiS-like: browsing/search dominates, forms are light.
  struct ReadSpec {
    RubisTxType type;
    std::uint32_t weight;
  };
  static constexpr ReadSpec kReads[] = {
      {RubisTxType::Home, 8},
      {RubisTxType::Browse, 6},
      {RubisTxType::BrowseCategories, 6},
      {RubisTxType::SearchItemsInCategory, 16},
      {RubisTxType::BrowseRegions, 3},
      {RubisTxType::BrowseCategoriesInRegion, 3},
      {RubisTxType::SearchItemsInRegion, 6},
      {RubisTxType::ViewItem, 14},
      {RubisTxType::ViewBidHistory, 4},
      {RubisTxType::ViewUserInfo, 4},
      {RubisTxType::BuyNowAuth, 2},
      {RubisTxType::BuyNowForm, 2},
      {RubisTxType::PutBidAuth, 4},
      {RubisTxType::PutBidForm, 4},
      {RubisTxType::PutCommentAuth, 1},
      {RubisTxType::PutCommentForm, 1},
      {RubisTxType::AboutMe, 2},
      {RubisTxType::SellForm, 1},
      {RubisTxType::SellItemForm, 1},
      {RubisTxType::RegisterUserForm, 1},
      {RubisTxType::ViewComments, 2},
  };
  std::uint32_t total = 0;
  for (const auto& spec : kReads) total += spec.weight;
  std::uint64_t pick = rng.uniform(total);
  RubisTxType type = RubisTxType::Home;
  for (const auto& spec : kReads) {
    if (pick < spec.weight) {
      type = spec.type;
      break;
    }
    pick -= spec.weight;
  }

  // Build the interaction's read set.
  std::vector<Key> reads;
  const PartitionId s = pick_shard(node, rng, false);
  const auto cat =
      static_cast<std::uint32_t>(rng.uniform(config_.categories));
  const auto reg = static_cast<std::uint32_t>(rng.uniform(config_.regions));
  switch (type) {
    case RubisTxType::Home:
    case RubisTxType::Browse:
    case RubisTxType::BrowseCategories:
      for (std::uint32_t c = 0; c < 5; ++c) {
        reads.push_back(keys_.category_listing(home, (cat + c) % config_.categories));
      }
      break;
    case RubisTxType::BrowseRegions:
    case RubisTxType::BrowseCategoriesInRegion:
      for (std::uint32_t r = 0; r < 5; ++r) {
        reads.push_back(keys_.region_listing(home, (reg + r) % config_.regions));
      }
      break;
    case RubisTxType::SearchItemsInCategory:
      reads.push_back(keys_.category_listing(s, cat));
      for (int i = 0; i < 10; ++i) {
        reads.push_back(keys_.item(s, pick_hot_item(s, node, rng)));
      }
      break;
    case RubisTxType::SearchItemsInRegion:
      reads.push_back(keys_.region_listing(s, reg));
      for (int i = 0; i < 10; ++i) {
        reads.push_back(keys_.item(s, pick_hot_item(s, node, rng)));
      }
      break;
    case RubisTxType::ViewItem:
    case RubisTxType::BuyNowAuth:
    case RubisTxType::BuyNowForm:
    case RubisTxType::PutBidAuth:
    case RubisTxType::PutBidForm:
      reads.push_back(keys_.item(s, pick_hot_item(s, node, rng)));
      break;
    case RubisTxType::ViewBidHistory:
      reads.push_back(keys_.item(s, pick_hot_item(s, node, rng)));
      for (int i = 0; i < 5; ++i) {
        reads.push_back(keys_.bid(s, rng.uniform(1000)));
      }
      break;
    case RubisTxType::ViewUserInfo:
    case RubisTxType::PutCommentAuth:
    case RubisTxType::PutCommentForm:
      reads.push_back(keys_.user(s, pick_user(s, node, rng)));
      break;
    case RubisTxType::ViewComments:
      reads.push_back(keys_.user(s, pick_user(s, node, rng)));
      for (int i = 0; i < 5; ++i) {
        reads.push_back(keys_.comment(s, rng.uniform(1000)));
      }
      break;
    case RubisTxType::AboutMe:
      reads.push_back(keys_.user(home, pick_user(home, node, rng)));
      for (int i = 0; i < 3; ++i) {
        reads.push_back(keys_.bid(home, rng.uniform(1000)));
        reads.push_back(keys_.item(home, pick_hot_item(home, node, rng)));
      }
      break;
    case RubisTxType::SellForm:
    case RubisTxType::SellItemForm:
    case RubisTxType::RegisterUserForm:
      reads.push_back(keys_.user(home, pick_user(home, node, rng)));
      break;
    default:
      reads.push_back(keys_.item(s, pick_hot_item(s, node, rng)));
      break;
  }
  return std::make_shared<ReadOnlyTxn>(type, std::move(reads));
}

Timestamp RubisWorkload::think_time(const TxnProgram& program, Rng& rng) {
  (void)program;
  return rng.uniform_range(config_.think_min, config_.think_max);
}

}  // namespace str::workload
