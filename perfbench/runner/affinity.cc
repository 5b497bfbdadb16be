/**
 * @file
 * Thread placement of the runner (see affinity.hh).
 */

#include "affinity.hh"

#include <dirent.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench
{

namespace
{

/** The CPUs the process may run on, in ascending order. */
std::vector<int> &
allowedCpus()
{
    static std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        if (out.empty())
            out.push_back(0);
        return out;
    }();
    return cpus;
}

void
pin(pid_t tid, int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    // A thread that ended meanwhile cannot be pinned; that is fine.
    (void)sched_setaffinity(tid, sizeof(set), &set);
}

int
workerCpu(unsigned k)
{
    const std::vector<int> &cpus = allowedCpus();
    if (cpus.size() == 1)
        return cpus[0];
    return cpus[1 + k % (cpus.size() - 1)];
}

/** Thread ids of the process, ascending. */
std::vector<pid_t>
threadIds()
{
    std::vector<pid_t> ids;
    if (DIR *dir = opendir("/proc/self/task")) {
        while (const dirent *e = readdir(dir))
            if (e->d_name[0] != '.')
                ids.push_back(static_cast<pid_t>(std::atol(e->d_name)));
        closedir(dir);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

} // namespace

void
pinControlThread()
{
    pin(0, allowedCpus()[0]);
}

unsigned
workerCpus()
{
    const std::size_t n = allowedCpus().size();
    return static_cast<unsigned>(n == 1 ? 1 : n - 1);
}

void
pinSelfToCpu(unsigned k)
{
    const std::vector<int> &cpus = allowedCpus();
    pin(0, cpus[k % cpus.size()]);
}

void
startPinned(const std::function<void()> &start)
{
    const std::vector<pid_t> before = threadIds();
    start();
    unsigned k = 0;
    for (const pid_t tid : threadIds())
        if (!std::binary_search(before.begin(), before.end(), tid))
            pin(tid, workerCpu(k++));
}

} // namespace perfbench
