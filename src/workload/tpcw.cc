#include "src/workload/tpcw.h"

#include <algorithm>

namespace mtdb::workload {

namespace {

const char* kSubjects[] = {"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN",
                           "COMPUTERS", "COOKING", "HEALTH", "HISTORY",
                           "HOME", "HUMOR", "LITERATURE", "MYSTERY",
                           "NON-FICTION", "PARENTING", "POLITICS",
                           "REFERENCE", "RELIGION", "ROMANCE",
                           "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION",
                           "SPORTS", "YOUTH", "TRAVEL"};
constexpr int kNumSubjects = 24;

std::string Subject(Random* rng) {
  return kSubjects[rng->Uniform(kNumSubjects)];
}

}  // namespace

Status CreateTpcwSchema(ClusterController* controller,
                        const std::string& db_name) {
  static const char* kDdl[] = {
      "CREATE TABLE country (co_id INT PRIMARY KEY, co_name VARCHAR(50))",
      "CREATE TABLE address (addr_id INT PRIMARY KEY, "
      "addr_street VARCHAR(40), addr_city VARCHAR(30), addr_co_id INT)",
      "CREATE TABLE customer (c_id INT PRIMARY KEY, c_uname VARCHAR(20), "
      "c_passwd VARCHAR(20), c_fname VARCHAR(17), c_lname VARCHAR(17), "
      "c_addr_id INT, c_balance DOUBLE, c_ytd_pmt DOUBLE)",
      "CREATE INDEX idx_c_uname ON customer (c_uname)",
      "CREATE TABLE author (a_id INT PRIMARY KEY, a_fname VARCHAR(20), "
      "a_lname VARCHAR(20))",
      "CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60), "
      "i_a_id INT, i_subject VARCHAR(20), i_cost DOUBLE, i_stock INT, "
      "i_pub_date INT, i_total_sold INT)",
      "CREATE INDEX idx_i_subject ON item (i_subject)",
      "CREATE INDEX idx_i_a_id ON item (i_a_id)",
      "CREATE TABLE orders (o_id INT PRIMARY KEY, o_c_id INT, o_date INT, "
      "o_total DOUBLE, o_status VARCHAR(16))",
      "CREATE INDEX idx_o_c_id ON orders (o_c_id)",
      "CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, "
      "ol_i_id INT, ol_qty INT, ol_discount DOUBLE)",
      "CREATE INDEX idx_ol_o_id ON order_line (ol_o_id)",
      "CREATE TABLE cc_xacts (cx_o_id INT PRIMARY KEY, cx_type VARCHAR(10), "
      "cx_amount DOUBLE, cx_auth_date INT)",
      "CREATE TABLE shopping_cart (sc_id INT PRIMARY KEY, sc_date INT, "
      "sc_total DOUBLE)",
      "CREATE TABLE shopping_cart_line (scl_id INT PRIMARY KEY, "
      "scl_sc_id INT, scl_i_id INT, scl_qty INT)",
      "CREATE INDEX idx_scl_sc_id ON shopping_cart_line (scl_sc_id)",
  };
  for (const char* ddl : kDdl) {
    MTDB_RETURN_IF_ERROR(controller->ExecuteDdl(db_name, ddl));
  }
  return Status::OK();
}

Status LoadTpcwData(ClusterController* controller, const std::string& db_name,
                    const TpcwScale& scale) {
  Random rng(scale.seed);

  std::vector<Row> countries;
  for (int64_t i = 0; i < 10; ++i) {
    countries.push_back({Value(i), Value("country_" + std::to_string(i))});
  }
  MTDB_RETURN_IF_ERROR(controller->BulkLoad(db_name, "country", countries));

  std::vector<Row> addresses;
  for (int64_t i = 0; i < scale.addresses(); ++i) {
    addresses.push_back({Value(i), Value(rng.AlphaString(16)),
                         Value(rng.AlphaString(10)),
                         Value(static_cast<int64_t>(rng.Uniform(10)))});
  }
  MTDB_RETURN_IF_ERROR(controller->BulkLoad(db_name, "address", addresses));

  std::vector<Row> customers;
  for (int64_t i = 0; i < scale.customers; ++i) {
    customers.push_back({Value(i), Value("user" + std::to_string(i)),
                         Value(rng.AlphaString(8)), Value(rng.AlphaString(8)),
                         Value(rng.AlphaString(10)),
                         Value(static_cast<int64_t>(
                             rng.Uniform(scale.addresses()))),
                         Value(0.0), Value(0.0)});
  }
  MTDB_RETURN_IF_ERROR(controller->BulkLoad(db_name, "customer", customers));

  std::vector<Row> authors;
  for (int64_t i = 0; i < scale.authors(); ++i) {
    authors.push_back(
        {Value(i), Value(rng.AlphaString(8)), Value(rng.AlphaString(10))});
  }
  MTDB_RETURN_IF_ERROR(controller->BulkLoad(db_name, "author", authors));

  std::vector<Row> items;
  for (int64_t i = 0; i < scale.items; ++i) {
    items.push_back({Value(i), Value("title_" + rng.AlphaString(12)),
                     Value(static_cast<int64_t>(rng.Uniform(scale.authors()))),
                     Value(std::string(kSubjects[rng.Uniform(kNumSubjects)])),
                     Value(1.0 + static_cast<double>(rng.Uniform(9900)) / 100),
                     Value(static_cast<int64_t>(10 + rng.Uniform(90))),
                     Value(static_cast<int64_t>(rng.Uniform(3650))),
                     Value(int64_t{0})});
  }
  MTDB_RETURN_IF_ERROR(controller->BulkLoad(db_name, "item", items));

  std::vector<Row> orders;
  std::vector<Row> order_lines;
  std::vector<Row> cc;
  int64_t ol_id = 0;
  for (int64_t o = 0; o < scale.initial_orders; ++o) {
    int64_t customer = static_cast<int64_t>(rng.Uniform(scale.customers));
    int64_t lines = 1 + static_cast<int64_t>(rng.Uniform(4));
    double total = 0;
    for (int64_t l = 0; l < lines; ++l) {
      int64_t item = static_cast<int64_t>(rng.Uniform(scale.items));
      int64_t qty = 1 + static_cast<int64_t>(rng.Uniform(5));
      total += static_cast<double>(qty) * 10.0;
      order_lines.push_back({Value(ol_id++), Value(o), Value(item),
                             Value(qty), Value(0.0)});
    }
    orders.push_back({Value(o), Value(customer),
                      Value(static_cast<int64_t>(rng.Uniform(365))),
                      Value(total), Value("SHIPPED")});
    cc.push_back({Value(o), Value("VISA"), Value(total),
                  Value(static_cast<int64_t>(rng.Uniform(365)))});
  }
  MTDB_RETURN_IF_ERROR(controller->BulkLoad(db_name, "orders", orders));
  MTDB_RETURN_IF_ERROR(
      controller->BulkLoad(db_name, "order_line", order_lines));
  MTDB_RETURN_IF_ERROR(controller->BulkLoad(db_name, "cc_xacts", cc));
  return Status::OK();
}

std::string_view TpcwMixName(TpcwMix mix) {
  switch (mix) {
    case TpcwMix::kBrowsing:
      return "browsing";
    case TpcwMix::kShopping:
      return "shopping";
    case TpcwMix::kOrdering:
      return "ordering";
  }
  return "?";
}

bool IsWriteInteraction(Interaction interaction) {
  switch (interaction) {
    case Interaction::kShoppingCartAdd:
    case Interaction::kBuyConfirm:
    case Interaction::kAdminUpdate:
      return true;
    default:
      return false;
  }
}

Interaction DrawInteraction(TpcwMix mix, Random* rng) {
  // Browse-side and order-side interaction pools; the mix picks the side
  // with the TPC-W browse/order split (95/5, 80/20, 50/50).
  double order_fraction = 0.05;
  if (mix == TpcwMix::kShopping) order_fraction = 0.20;
  if (mix == TpcwMix::kOrdering) order_fraction = 0.50;

  if (rng->Bernoulli(order_fraction)) {
    static const Interaction kOrderSide[] = {
        Interaction::kShoppingCartAdd, Interaction::kBuyConfirm,
        Interaction::kAdminUpdate, Interaction::kOrderInquiry};
    // Weight BuyConfirm and cart updates heavier than admin updates.
    uint64_t roll = rng->Uniform(10);
    if (roll < 4) return kOrderSide[0];
    if (roll < 8) return kOrderSide[1];
    if (roll < 9) return kOrderSide[2];
    return kOrderSide[3];
  }
  static const Interaction kBrowseSide[] = {
      Interaction::kHome,          Interaction::kNewProducts,
      Interaction::kBestSellers,   Interaction::kProductDetail,
      Interaction::kSearchBySubject, Interaction::kSearchByTitle};
  uint64_t roll = rng->Uniform(100);
  if (roll < 30) return kBrowseSide[0];
  if (roll < 40) return kBrowseSide[1];
  if (roll < 45) return kBrowseSide[2];
  if (roll < 75) return kBrowseSide[3];
  if (roll < 90) return kBrowseSide[4];
  return kBrowseSide[5];
}

Result<TpcwStatements> PrepareTpcwStatements(Connection* conn) {
  TpcwStatements s;
  struct Entry {
    std::shared_ptr<PreparedStatement>* slot;
    const char* sql;
  };
  const Entry kEntries[] = {
      {&s.home_customer,
       "SELECT c_fname, c_lname FROM customer WHERE c_id = ?"},
      {&s.home_item, "SELECT i_title, i_cost FROM item WHERE i_id = ?"},
      {&s.new_products,
       "SELECT i_id, i_title, i_pub_date FROM item WHERE i_subject = ? "
       "ORDER BY i_pub_date DESC LIMIT 20"},
      {&s.best_sellers,
       "SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line WHERE ol_id < ? "
       "GROUP BY ol_i_id ORDER BY sold DESC LIMIT 10"},
      {&s.product_detail,
       "SELECT i.i_title, i.i_cost, i.i_stock, a.a_fname, a.a_lname "
       "FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_id = ?"},
      {&s.search_subject,
       "SELECT i_id, i_title FROM item WHERE i_subject = ? "
       "ORDER BY i_title LIMIT 50"},
      {&s.search_title,
       "SELECT i_id, i_title FROM item WHERE i_title LIKE ? LIMIT 50"},
      {&s.cart_get, "SELECT sc_id FROM shopping_cart WHERE sc_id = ?"},
      {&s.cart_insert, "INSERT INTO shopping_cart VALUES (?, 0, 0.0)"},
      {&s.cart_line_get,
       "SELECT scl_qty FROM shopping_cart_line WHERE scl_id = ?"},
      {&s.cart_line_insert,
       "INSERT INTO shopping_cart_line VALUES (?, ?, ?, 1)"},
      {&s.cart_line_update,
       "UPDATE shopping_cart_line SET scl_qty = scl_qty + 1 "
       "WHERE scl_id = ?"},
      {&s.buy_stock, "SELECT i_stock, i_cost FROM item WHERE i_id = ?"},
      {&s.buy_update_item,
       "UPDATE item SET i_stock = i_stock - ? + (i_stock < 10) * 21, "
       "i_total_sold = i_total_sold + ? WHERE i_id = ?"},
      {&s.buy_insert_line,
       "INSERT INTO order_line VALUES (?, ?, ?, ?, 0.0)"},
      {&s.buy_insert_order,
       "INSERT INTO orders VALUES (?, ?, 0, ?, 'PENDING')"},
      {&s.buy_insert_cc, "INSERT INTO cc_xacts VALUES (?, 'VISA', ?, 0)"},
      {&s.buy_update_customer,
       "UPDATE customer SET c_balance = c_balance + ?, "
       "c_ytd_pmt = c_ytd_pmt + ? WHERE c_id = ?"},
      {&s.order_last,
       "SELECT o_id, o_total, o_status FROM orders WHERE o_c_id = ? "
       "ORDER BY o_id DESC LIMIT 1"},
      {&s.order_lines,
       "SELECT ol_i_id, ol_qty FROM order_line WHERE ol_o_id = ?"},
      {&s.admin_update,
       "UPDATE item SET i_cost = i_cost * 1.01, i_pub_date = i_pub_date + 1 "
       "WHERE i_id = ?"},
  };
  for (const Entry& entry : kEntries) {
    MTDB_ASSIGN_OR_RETURN(*entry.slot, conn->Prepare(entry.sql));
  }
  return s;
}

namespace {

// Helpers returning Status; the transaction wrapper handles abort. Every
// statement is prepared: the controller skips its routing parse, and each
// machine serves the '?' text from its plan cache.

Status Home(Connection* conn, const TpcwStatements& stmts,
            const TpcwScale& scale, Random* rng) {
  int64_t customer = static_cast<int64_t>(rng->Uniform(scale.customers));
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.home_customer, {Value(customer)}).status());
  // Promotional items.
  for (int i = 0; i < 5; ++i) {
    int64_t item = static_cast<int64_t>(rng->Uniform(scale.items));
    MTDB_RETURN_IF_ERROR(
        conn->ExecutePrepared(stmts.home_item, {Value(item)}).status());
  }
  return Status::OK();
}

Status NewProducts(Connection* conn, const TpcwStatements& stmts,
                   Random* rng) {
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.new_products, {Value(Subject(rng))})
          .status());
  return Status::OK();
}

Status BestSellers(Connection* conn, const TpcwStatements& stmts,
                   const TpcwScale& scale) {
  // Restrict to a bounded window of order lines (as TPC-W restricts best
  // sellers to the last 3333 orders) via a PK range on order_line, so the
  // scan cost does not grow with the run.
  int64_t window = std::max<int64_t>(scale.initial_orders * 3, 150);
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.best_sellers, {Value(window)}).status());
  return Status::OK();
}

Status ProductDetail(Connection* conn, const TpcwStatements& stmts,
                     const TpcwScale& scale, Random* rng) {
  int64_t item = static_cast<int64_t>(rng->Uniform(scale.items));
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.product_detail, {Value(item)}).status());
  return Status::OK();
}

Status SearchBySubject(Connection* conn, const TpcwStatements& stmts,
                       Random* rng) {
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.search_subject, {Value(Subject(rng))})
          .status());
  return Status::OK();
}

Status SearchByTitle(Connection* conn, const TpcwStatements& stmts,
                     Random* rng) {
  std::string prefix =
      std::string("title_") + static_cast<char>('a' + rng->Uniform(26));
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.search_title, {Value(prefix + "%")})
          .status());
  return Status::OK();
}

Status ShoppingCartAdd(Connection* conn, const TpcwStatements& stmts,
                       const TpcwScale& scale, Random* rng) {
  // Create or reuse a cart keyed by a random id, then add a line.
  int64_t cart = static_cast<int64_t>(rng->Uniform(scale.customers * 4));
  auto existing = conn->ExecutePrepared(stmts.cart_get, {Value(cart)});
  MTDB_RETURN_IF_ERROR(existing.status());
  if (existing->rows.empty()) {
    MTDB_RETURN_IF_ERROR(
        conn->ExecutePrepared(stmts.cart_insert, {Value(cart)}).status());
  }
  int64_t item = static_cast<int64_t>(rng->Uniform(scale.items));
  int64_t line = cart * 100 + static_cast<int64_t>(rng->Uniform(100));
  auto line_row = conn->ExecutePrepared(stmts.cart_line_get, {Value(line)});
  MTDB_RETURN_IF_ERROR(line_row.status());
  if (line_row->rows.empty()) {
    MTDB_RETURN_IF_ERROR(
        conn->ExecutePrepared(stmts.cart_line_insert,
                              {Value(line), Value(cart), Value(item)})
            .status());
  } else {
    MTDB_RETURN_IF_ERROR(
        conn->ExecutePrepared(stmts.cart_line_update, {Value(line)})
            .status());
  }
  return Status::OK();
}

Status BuyConfirm(Connection* conn, const TpcwStatements& stmts,
                  const TpcwScale& scale, Random* rng) {
  // The heavyweight multi-table write transaction: decrement stock for a
  // few items, create the order with its lines and the credit-card record.
  int64_t customer = static_cast<int64_t>(rng->Uniform(scale.customers));
  int64_t order_id =
      1'000'000 + static_cast<int64_t>(rng->Next() % 1'000'000'000);
  int64_t lines = 1 + static_cast<int64_t>(rng->Uniform(3));
  double total = 0;
  for (int64_t l = 0; l < lines; ++l) {
    int64_t item = static_cast<int64_t>(rng->Uniform(scale.items));
    auto stock = conn->ExecutePrepared(stmts.buy_stock, {Value(item)});
    MTDB_RETURN_IF_ERROR(stock.status());
    if (stock->rows.empty()) continue;
    int64_t qty = 1 + static_cast<int64_t>(rng->Uniform(3));
    total += stock->at(0, 1).AsDouble() * static_cast<double>(qty);
    // Restock when low, as TPC-W's buy-confirm does.
    MTDB_RETURN_IF_ERROR(
        conn->ExecutePrepared(stmts.buy_update_item,
                              {Value(qty), Value(qty), Value(item)})
            .status());
    MTDB_RETURN_IF_ERROR(
        conn->ExecutePrepared(stmts.buy_insert_line,
                              {Value(order_id * 10 + l), Value(order_id),
                               Value(item), Value(qty)})
            .status());
  }
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.buy_insert_order,
                            {Value(order_id), Value(customer), Value(total)})
          .status());
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.buy_insert_cc,
                            {Value(order_id), Value(total)})
          .status());
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.buy_update_customer,
                            {Value(total), Value(total), Value(customer)})
          .status());
  return Status::OK();
}

Status OrderInquiry(Connection* conn, const TpcwStatements& stmts,
                    const TpcwScale& scale, Random* rng) {
  int64_t customer = static_cast<int64_t>(rng->Uniform(scale.customers));
  auto order = conn->ExecutePrepared(stmts.order_last, {Value(customer)});
  MTDB_RETURN_IF_ERROR(order.status());
  if (!order->rows.empty()) {
    MTDB_RETURN_IF_ERROR(
        conn->ExecutePrepared(stmts.order_lines, {order->at(0, 0)}).status());
  }
  return Status::OK();
}

Status AdminUpdate(Connection* conn, const TpcwStatements& stmts,
                   const TpcwScale& scale, Random* rng) {
  int64_t item = static_cast<int64_t>(rng->Uniform(scale.items));
  MTDB_RETURN_IF_ERROR(
      conn->ExecutePrepared(stmts.admin_update, {Value(item)}).status());
  return Status::OK();
}

}  // namespace

InteractionResult RunInteraction(Connection* conn,
                                 const TpcwStatements& statements,
                                 Interaction interaction,
                                 const TpcwScale& scale, Random* rng,
                                 bool snapshot_reads) {
  InteractionResult result;
  result.was_write = IsWriteInteraction(interaction);
  Status status = conn->Begin(snapshot_reads && !result.was_write);
  if (!status.ok()) {
    result.status = status;
    return result;
  }
  switch (interaction) {
    case Interaction::kHome:
      status = Home(conn, statements, scale, rng);
      break;
    case Interaction::kNewProducts:
      status = NewProducts(conn, statements, rng);
      break;
    case Interaction::kBestSellers:
      status = BestSellers(conn, statements, scale);
      break;
    case Interaction::kProductDetail:
      status = ProductDetail(conn, statements, scale, rng);
      break;
    case Interaction::kSearchBySubject:
      status = SearchBySubject(conn, statements, rng);
      break;
    case Interaction::kSearchByTitle:
      status = SearchByTitle(conn, statements, rng);
      break;
    case Interaction::kShoppingCartAdd:
      status = ShoppingCartAdd(conn, statements, scale, rng);
      break;
    case Interaction::kBuyConfirm:
      status = BuyConfirm(conn, statements, scale, rng);
      break;
    case Interaction::kOrderInquiry:
      status = OrderInquiry(conn, statements, scale, rng);
      break;
    case Interaction::kAdminUpdate:
      status = AdminUpdate(conn, statements, scale, rng);
      break;
  }
  if (status.ok()) {
    result.status = conn->Commit();
  } else {
    if (conn->in_transaction()) (void)conn->Abort();
    result.status = status;
  }
  return result;
}

InteractionResult RunInteraction(Connection* conn, Interaction interaction,
                                 const TpcwScale& scale, Random* rng,
                                 bool snapshot_reads) {
  // The statement set lives in the controller's shared registry, so this
  // fetch is a handful of map lookups after the first call.
  auto stmts_or = PrepareTpcwStatements(conn);
  if (!stmts_or.ok()) {
    InteractionResult result;
    result.status = stmts_or.status();
    result.was_write = IsWriteInteraction(interaction);
    return result;
  }
  return RunInteraction(conn, *stmts_or, interaction, scale, rng,
                        snapshot_reads);
}

}  // namespace mtdb::workload
