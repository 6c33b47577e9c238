package repro.core

/** Selection and sorting of primitive (key, index) pairs, held in two
  * parallel arrays so nothing is boxed. Pairs compare by key, then by index,
  * so the order they produce is the one a stable sort by key gives.
  */
object IndexSort {

  /** 0, 1, …, n − 1. */
  def iota(n: Int): Array[Int] = {
    val a = new Array[Int](n)
    var i = 0
    while (i < n) { a(i) = i; i += 1 }
    a
  }

  /** Rearranges positions lo..hi (inclusive) so that position `nth` holds the
    * pair a full sort would put there, no pair before it is larger and no pair
    * after it is smaller (Hoare's FIND, in Wirth's form). Expected O(hi − lo).
    */
  def select(key: Array[Double], idx: Array[Int], lo0: Int, hi0: Int, nth: Int): Unit = {
    var lo = lo0; var hi = hi0
    while (lo < hi) {
      val pk = key(nth); val pi = idx(nth)
      var i = lo; var j = hi
      while (i <= j) {
        while (key(i) < pk || (key(i) == pk && idx(i) < pi)) i += 1
        while (pk < key(j) || (pk == key(j) && pi < idx(j))) j -= 1
        if (i <= j) {
          val tk = key(i); key(i) = key(j); key(j) = tk
          val ti = idx(i); idx(i) = idx(j); idx(j) = ti
          i += 1; j -= 1
        }
      }
      if (j < nth) lo = i
      if (nth < i) hi = j
    }
  }

  /** Sorts positions lo..hi (inclusive) by (key, index). Splitting at the
    * median keeps the recursion depth at log2 of the range.
    */
  def sort(key: Array[Double], idx: Array[Int], lo: Int, hi: Int): Unit =
    if (lo < hi) {
      val mid = (lo + hi) >>> 1
      select(key, idx, lo, hi, mid)
      sort(key, idx, lo, mid - 1)
      sort(key, idx, mid + 1, hi)
    }
}
