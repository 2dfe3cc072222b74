-- The serve-sql-hot corpus: 16 statements on the TPC-H catalog, one per
-- `;`. Client c owns the statements whose index is congruent to c modulo
-- the client count, so the order below interleaves small and large
-- statements to give both clients a like mix (2 to 8 tables each).

-- 0: the paper's introductory query Ex (full outer join of two joins).
select ns.n_name, nc.n_name, count(*)
from (nation ns join supplier s on ns.n_nationkey = s.s_nationkey)
     full outer join
     (nation nc join customer c on nc.n_nationkey = c.c_nationkey)
     on ns.n_nationkey = nc.n_nationkey
group by ns.n_name, nc.n_name;

-- 1: TPC-H Q3 shape (shipping priority).
select l.l_orderkey, o.o_orderdate, o.o_shippriority, sum(l.l_extendedprice)
from customer c join orders o on c.c_custkey = o.o_custkey
     join lineitem l on o.o_orderkey = l.l_orderkey
group by l.l_orderkey, o.o_orderdate, o.o_shippriority;

-- 2: TPC-H Q5 shape (local supplier volume; the c_nationkey = s_nationkey
-- term makes the query graph cyclic).
select n.n_name, sum(l.l_extendedprice)
from customer c join orders o on c.c_custkey = o.o_custkey
     join lineitem l on o.o_orderkey = l.l_orderkey
     join supplier s on l.l_suppkey = s.s_suppkey and c.c_nationkey = s.s_nationkey
     join nation n on s.s_nationkey = n.n_nationkey
     join region r on n.n_regionkey = r.r_regionkey
group by n.n_name;

-- 3: TPC-H Q10 shape (returned items).
select c.c_custkey, c.c_acctbal, n.n_name, sum(l.l_extendedprice)
from customer c join orders o on c.c_custkey = o.o_custkey
     join lineitem l on o.o_orderkey = l.l_orderkey
     join nation n on c.c_nationkey = n.n_nationkey
group by c.c_custkey, c.c_acctbal, n.n_name;

-- 4: two tables, inner join.
select n.n_name, count(*), sum(s.s_acctbal)
from nation n join supplier s on n.n_nationkey = s.s_nationkey
group by n.n_name;

-- 5: two tables, semi join.
select n.n_name, count(*)
from nation n semi join supplier s on n.n_nationkey = s.s_nationkey
group by n.n_name;

-- 6: three tables, left outer joins keep customers without orders.
select c.c_mktsegment, count(o.o_orderkey), sum(l.l_quantity)
from customer c left outer join orders o on c.c_custkey = o.o_custkey
     left outer join lineitem l on o.o_orderkey = l.l_orderkey
group by c.c_mktsegment;

-- 7: three tables along the region hierarchy.
select r.r_name, count(*), sum(c.c_acctbal)
from region r join nation n on r.r_regionkey = n.n_regionkey
     join customer c on n.n_nationkey = c.c_nationkey
group by r.r_name;

-- 8: four tables, anti join: customers without orders, per region.
select r.r_name, count(*), min(c.c_acctbal)
from region r join nation n on r.r_regionkey = n.n_regionkey
     join (customer c anti join orders o on c.c_custkey = o.o_custkey)
     on n.n_nationkey = c.c_nationkey
group by r.r_name;

-- 9: five tables, supplier side of the schema.
select r.r_name, sum(l.l_extendedprice), count(*)
from region r join nation n on r.r_regionkey = n.n_regionkey
     join supplier s on n.n_nationkey = s.s_nationkey
     join lineitem l on s.s_suppkey = l.l_suppkey
     join orders o on l.l_orderkey = o.o_orderkey
group by r.r_name;

-- 10: five tables with outer joins and min/max aggregates.
select n.n_name, min(l.l_shipdate), max(o.o_totalprice), count(c.c_custkey)
from nation n join supplier s on n.n_nationkey = s.s_nationkey
     left outer join lineitem l on s.s_suppkey = l.l_suppkey
     left outer join orders o on l.l_orderkey = o.o_orderkey
     left outer join customer c on o.o_custkey = c.c_custkey
group by n.n_name;

-- 11: six tables, acyclic chain from region to supplier.
select n.n_name, o.o_orderdate, sum(l.l_quantity), count(*)
from region r join nation n on r.r_regionkey = n.n_regionkey
     join customer c on n.n_nationkey = c.c_nationkey
     join orders o on c.c_custkey = o.o_custkey
     join lineitem l on o.o_orderkey = l.l_orderkey
     join supplier s on l.l_suppkey = s.s_suppkey
group by n.n_name, o.o_orderdate;

-- 12: seven tables, TPC-H Q7 shape (volume shipped between two nations).
select ns.n_name, nc.n_name, sum(l.l_extendedprice)
from nation ns join supplier s on ns.n_nationkey = s.s_nationkey
     join lineitem l on s.s_suppkey = l.l_suppkey
     join orders o on l.l_orderkey = o.o_orderkey
     join customer c on o.o_custkey = c.c_custkey
     join nation nc on c.c_nationkey = nc.n_nationkey
     join region rc on nc.n_regionkey = rc.r_regionkey
group by ns.n_name, nc.n_name;

-- 13: eight tables, both nation/region branches (TPC-H Q8 shape without
-- part).
select rs.r_name, rc.r_name, sum(l.l_extendedprice), count(*)
from region rs join nation ns on rs.r_regionkey = ns.n_regionkey
     join supplier s on ns.n_nationkey = s.s_nationkey
     join lineitem l on s.s_suppkey = l.l_suppkey
     join orders o on l.l_orderkey = o.o_orderkey
     join customer c on o.o_custkey = c.c_custkey
     join nation nc on c.c_nationkey = nc.n_nationkey
     join region rc on nc.n_regionkey = rc.r_regionkey
group by rs.r_name, rc.r_name;

-- 14: avg and count(distinct) constrain where grouping may be pushed.
select n.n_name, avg(s.s_acctbal), count(distinct s.s_nationkey)
from nation n join supplier s on n.n_nationkey = s.s_nationkey
group by n.n_name;

-- 15: scalar aggregates without a group by.
select count(*), sum(l.l_quantity), max(o.o_totalprice)
from orders o join lineitem l on o.o_orderkey = l.l_orderkey
     semi join customer c on o.o_custkey = c.c_custkey;
