#include "container/frequency_tree.h"

#include <algorithm>
#include <cmath>

namespace qlove {

FrequencyTree::FrequencyTree() {
  nil_ = MakeNil();
  root_ = nil_;
}

FrequencyTree::~FrequencyTree() {
  if (nil_ == nullptr) return;  // moved-from
  FreeSubtree(root_);
  delete nil_;
}

FrequencyTree::FrequencyTree(FrequencyTree&& other) noexcept
    : nil_(other.nil_), root_(other.root_), unique_count_(other.unique_count_) {
  other.nil_ = nullptr;
  other.root_ = nullptr;
  other.unique_count_ = 0;
}

FrequencyTree& FrequencyTree::operator=(FrequencyTree&& other) noexcept {
  if (this == &other) return *this;
  if (nil_ != nullptr) {
    FreeSubtree(root_);
    delete nil_;
  }
  nil_ = other.nil_;
  root_ = other.root_;
  unique_count_ = other.unique_count_;
  other.nil_ = nullptr;
  other.root_ = nullptr;
  other.unique_count_ = 0;
  return *this;
}

FrequencyTree::Node* FrequencyTree::MakeNil() {
  Node* nil = new Node();
  nil->color = kBlack;
  nil->left = nil->right = nil->parent = nil;
  return nil;
}

void FrequencyTree::FreeSubtree(Node* node) {
  // Iterative destruction: balanced depth keeps an explicit stack tiny, and
  // this also survives pathological trees produced by future refactors.
  if (node == nil_ || node == nullptr) return;
  std::vector<Node*> stack = {node};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n->left != nil_) stack.push_back(n->left);
    if (n->right != nil_) stack.push_back(n->right);
    delete n;
  }
}

void FrequencyTree::PullCount(Node* node) {
  node->subtree_count =
      node->left->subtree_count + node->right->subtree_count + node->count;
}

void FrequencyTree::FixCountsUpward(Node* node) {
  while (node != nil_) {
    PullCount(node);
    node = node->parent;
  }
}

void FrequencyTree::LeftRotate(Node* x) {
  Node* y = x->right;
  x->right = y->left;
  if (y->left != nil_) y->left->parent = x;
  y->parent = x->parent;
  if (x->parent == nil_) {
    root_ = y;
  } else if (x == x->parent->left) {
    x->parent->left = y;
  } else {
    x->parent->right = y;
  }
  y->left = x;
  x->parent = y;
  // y inherits x's old subtree total; x shrinks to its new children.
  y->subtree_count = x->subtree_count;
  PullCount(x);
}

void FrequencyTree::RightRotate(Node* x) {
  Node* y = x->left;
  x->left = y->right;
  if (y->right != nil_) y->right->parent = x;
  y->parent = x->parent;
  if (x->parent == nil_) {
    root_ = y;
  } else if (x == x->parent->right) {
    x->parent->right = y;
  } else {
    x->parent->left = y;
  }
  y->right = x;
  x->parent = y;
  y->subtree_count = x->subtree_count;
  PullCount(x);
}

void FrequencyTree::Add(double value, int64_t n) {
  if (n <= 0) return;
  Node* parent = nil_;
  Node* cur = root_;
  while (cur != nil_) {
    cur->subtree_count += n;  // optimistic: value lands in this subtree
    parent = cur;
    if (value < cur->key) {
      cur = cur->left;
    } else if (value > cur->key) {
      cur = cur->right;
    } else {
      cur->count += n;
      return;
    }
  }
  Node* z = new Node();
  z->key = value;
  z->count = n;
  z->subtree_count = n;
  z->color = kRed;
  z->left = z->right = nil_;
  z->parent = parent;
  if (parent == nil_) {
    root_ = z;
  } else if (value < parent->key) {
    parent->left = z;
  } else {
    parent->right = z;
  }
  ++unique_count_;
  InsertFixup(z);
}

void FrequencyTree::InsertFixup(Node* z) {
  while (z->parent->color == kRed) {
    if (z->parent == z->parent->parent->left) {
      Node* uncle = z->parent->parent->right;
      if (uncle->color == kRed) {
        z->parent->color = kBlack;
        uncle->color = kBlack;
        z->parent->parent->color = kRed;
        z = z->parent->parent;
      } else {
        if (z == z->parent->right) {
          z = z->parent;
          LeftRotate(z);
        }
        z->parent->color = kBlack;
        z->parent->parent->color = kRed;
        RightRotate(z->parent->parent);
      }
    } else {
      Node* uncle = z->parent->parent->left;
      if (uncle->color == kRed) {
        z->parent->color = kBlack;
        uncle->color = kBlack;
        z->parent->parent->color = kRed;
        z = z->parent->parent;
      } else {
        if (z == z->parent->left) {
          z = z->parent;
          RightRotate(z);
        }
        z->parent->color = kBlack;
        z->parent->parent->color = kRed;
        LeftRotate(z->parent->parent);
      }
    }
  }
  root_->color = kBlack;
}

FrequencyTree::Node* FrequencyTree::Find(double value) const {
  Node* cur = root_;
  while (cur != nil_) {
    if (value < cur->key) {
      cur = cur->left;
    } else if (value > cur->key) {
      cur = cur->right;
    } else {
      return cur;
    }
  }
  return nil_;
}

int64_t FrequencyTree::Remove(double value, int64_t n) {
  if (n <= 0) return 0;
  Node* z = Find(value);
  if (z == nil_) return 0;
  const int64_t removed = std::min(n, z->count);
  z->count -= removed;
  // Propagate the count decrease along the root path.
  for (Node* up = z; up != nil_; up = up->parent) up->subtree_count -= removed;
  if (z->count == 0) {
    DeleteNode(z);
    --unique_count_;
  }
  return removed;
}

void FrequencyTree::Transplant(Node* u, Node* v) {
  if (u->parent == nil_) {
    root_ = v;
  } else if (u == u->parent->left) {
    u->parent->left = v;
  } else {
    u->parent->right = v;
  }
  v->parent = u->parent;
}

FrequencyTree::Node* FrequencyTree::Minimum(Node* node) const {
  while (node->left != nil_) node = node->left;
  return node;
}

void FrequencyTree::DeleteNode(Node* z) {
  // CLRS RB-Delete. z->count is already 0, so z no longer contributes to any
  // subtree totals; only the relocation of its successor y perturbs counts,
  // which FixCountsUpward repairs from the splice point.
  Node* y = z;
  Color y_original_color = y->color;
  Node* x;
  if (z->left == nil_) {
    x = z->right;
    Transplant(z, z->right);
  } else if (z->right == nil_) {
    x = z->left;
    Transplant(z, z->left);
  } else {
    y = Minimum(z->right);
    y_original_color = y->color;
    x = y->right;
    if (y->parent == z) {
      x->parent = y;  // x may be nil_; fixup relies on its parent link
    } else {
      Transplant(y, y->right);
      y->right = z->right;
      y->right->parent = y;
    }
    Transplant(z, y);
    y->left = z->left;
    y->left->parent = y;
    y->color = z->color;
  }
  // Repair subtree counts from the deepest structural change upward. x may be
  // the sentinel whose parent link points at the splice point.
  FixCountsUpward(x->parent);
  if (y_original_color == kBlack) DeleteFixup(x);
  nil_->parent = nil_;  // undo any temporary parent link on the sentinel
  nil_->subtree_count = 0;
  delete z;
}

void FrequencyTree::DeleteFixup(Node* x) {
  while (x != root_ && x->color == kBlack) {
    if (x == x->parent->left) {
      Node* w = x->parent->right;
      if (w->color == kRed) {
        w->color = kBlack;
        x->parent->color = kRed;
        LeftRotate(x->parent);
        w = x->parent->right;
      }
      if (w->left->color == kBlack && w->right->color == kBlack) {
        w->color = kRed;
        x = x->parent;
      } else {
        if (w->right->color == kBlack) {
          w->left->color = kBlack;
          w->color = kRed;
          RightRotate(w);
          w = x->parent->right;
        }
        w->color = x->parent->color;
        x->parent->color = kBlack;
        w->right->color = kBlack;
        LeftRotate(x->parent);
        x = root_;
      }
    } else {
      Node* w = x->parent->left;
      if (w->color == kRed) {
        w->color = kBlack;
        x->parent->color = kRed;
        RightRotate(x->parent);
        w = x->parent->left;
      }
      if (w->right->color == kBlack && w->left->color == kBlack) {
        w->color = kRed;
        x = x->parent;
      } else {
        if (w->left->color == kBlack) {
          w->right->color = kBlack;
          w->color = kRed;
          LeftRotate(w);
          w = x->parent->left;
        }
        w->color = x->parent->color;
        x->parent->color = kBlack;
        w->left->color = kBlack;
        RightRotate(x->parent);
        x = root_;
      }
    }
  }
  x->color = kBlack;
}

void FrequencyTree::Clear() {
  FreeSubtree(root_);
  root_ = nil_;
  nil_->subtree_count = 0;
  nil_->parent = nil_;
  unique_count_ = 0;
}

int64_t FrequencyTree::CountOf(double value) const {
  Node* node = Find(value);
  return node == nil_ ? 0 : node->count;
}

int64_t FrequencyTree::CountLessThan(double value) const {
  int64_t below = 0;
  Node* cur = root_;
  while (cur != nil_) {
    if (value <= cur->key) {
      cur = cur->left;
    } else {
      below += cur->left->subtree_count + cur->count;
      cur = cur->right;
    }
  }
  return below;
}

Result<double> FrequencyTree::SelectByRank(int64_t rank) const {
  if (rank < 1 || rank > TotalCount()) {
    return Status::OutOfRange("rank " + std::to_string(rank) +
                              " outside [1, " + std::to_string(TotalCount()) +
                              "]");
  }
  Node* cur = root_;
  while (true) {
    const int64_t left = cur->left->subtree_count;
    if (rank <= left) {
      cur = cur->left;
    } else if (rank <= left + cur->count) {
      return cur->key;
    } else {
      rank -= left + cur->count;
      cur = cur->right;
    }
  }
}

Result<double> FrequencyTree::Min() const {
  if (root_ == nil_) return Status::FailedPrecondition("tree is empty");
  Node* cur = root_;
  while (cur->left != nil_) cur = cur->left;
  return cur->key;
}

Result<double> FrequencyTree::Max() const {
  if (root_ == nil_) return Status::FailedPrecondition("tree is empty");
  Node* cur = root_;
  while (cur->right != nil_) cur = cur->right;
  return cur->key;
}

void FrequencyTree::InOrder(
    const std::function<bool(double, int64_t)>& visit) const {
  // Iterative in-order; depth is O(log u) so the stack stays small.
  std::vector<Node*> stack;
  Node* cur = root_;
  while (cur != nil_ || !stack.empty()) {
    while (cur != nil_) {
      stack.push_back(cur);
      cur = cur->left;
    }
    cur = stack.back();
    stack.pop_back();
    if (!visit(cur->key, cur->count)) return;
    cur = cur->right;
  }
}

Status FrequencyTree::ValidateNode(const Node* node, int* black_height) const {
  if (node == nil_) {
    *black_height = 1;
    return Status::OK();
  }
  if (node->count <= 0) {
    return Status::Internal("node with non-positive count");
  }
  if (node->left != nil_ && node->left->key >= node->key) {
    return Status::Internal("BST order violated on left child");
  }
  if (node->right != nil_ && node->right->key <= node->key) {
    return Status::Internal("BST order violated on right child");
  }
  if (node->subtree_count != node->left->subtree_count +
                                 node->right->subtree_count + node->count) {
    return Status::Internal("subtree count mismatch");
  }
  if (node->color == kRed &&
      (node->left->color == kRed || node->right->color == kRed)) {
    return Status::Internal("red node with red child");
  }
  if (node->left != nil_ && node->left->parent != node) {
    return Status::Internal("left child parent link broken");
  }
  if (node->right != nil_ && node->right->parent != node) {
    return Status::Internal("right child parent link broken");
  }
  int left_bh = 0;
  int right_bh = 0;
  QLOVE_RETURN_NOT_OK(ValidateNode(node->left, &left_bh));
  QLOVE_RETURN_NOT_OK(ValidateNode(node->right, &right_bh));
  if (left_bh != right_bh) {
    return Status::Internal("black height mismatch");
  }
  *black_height = left_bh + (node->color == kBlack ? 1 : 0);
  return Status::OK();
}

Status FrequencyTree::ValidateInvariants() const {
  if (root_->color != kBlack) return Status::Internal("root is not black");
  if (nil_->color != kBlack) return Status::Internal("sentinel is not black");
  if (nil_->subtree_count != 0) {
    return Status::Internal("sentinel has non-zero subtree count");
  }
  int bh = 0;
  QLOVE_RETURN_NOT_OK(ValidateNode(root_, &bh));
  int64_t uniques = 0;
  InOrder([&](double, int64_t) {
    ++uniques;
    return true;
  });
  if (uniques != unique_count_) {
    return Status::Internal("unique count out of sync");
  }
  return Status::OK();
}

}  // namespace qlove
